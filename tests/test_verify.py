import json

import pytest

from ncindiv import verify
from ncindiv.mdivisible import build_mdiv_poset, mdiv_sums
from ncindiv.verify import Check, format_report, run_suite, suite_report


def test_check_statuses():
    assert Check("a", 1, 1).status == "PASS"
    assert Check("a", 1, 2).status == "FAIL"
    assert Check("a", 1, 2, conjectural=True).status == "OPEN"
    assert Check("a", 1, 1, conjectural=True).status == "PASS"


def test_small_suite_all_pass():
    checks = run_suite(max_n=2, max_k=2)
    report = suite_report(checks)
    assert report["failed"] == 0
    assert report["passed"] + report["open"] == report["total"]
    assert report["total"] == len(checks) > 0


def test_default_suite_builds_no_mchain_order():
    build_mdiv_poset.cache_clear()
    report = suite_report(run_suite())
    assert report["total"] > 0 and report["failed"] == 0
    assert build_mdiv_poset.cache_info().currsize == 0


def test_default_suite_computes_the_mdiv_sums_once_per_params(monkeypatch):
    calls = []

    def counted(params, m):
        calls.append((params, m))
        return mdiv_sums(params, m)

    monkeypatch.setattr(verify, "mdiv_sums", counted)
    run_suite()
    assert len(calls) == len(set(calls)) == 9


def test_report_serialization():
    checks = [Check("demo", 1, 1), Check("conj", 2, 3, conjectural=True)]
    report = suite_report(checks)
    text = format_report(report)
    assert "PASS demo" in text and "OPEN conj" in text
    assert text.endswith("2: 1 passed, 0 failed, 1 open")
    parsed = json.loads(format_report(report, as_json=True))
    assert parsed["open"] == 1
    assert parsed["checks"][0]["status"] == "PASS"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_n": 5}, r"refusing full poset build at N = 16 > 13"),
        ({"max_n": 3, "max_states": 5}, r"the orbit has 16 states, more than max_states = 5"),
        # (1,11) is refused at the int64 packing, past every earlier (k, n)
        (
            {"max_n": 12, "max_k": 1, "max_states": 10**13},
            r"66\*\*11 packed states exceed the int64 packing limit",
        ),
    ],
)
def test_refused_range_is_refused_before_the_first_check(monkeypatch, kwargs, message):
    def never(params):
        raise AssertionError(f"a check ran at {params} before the refusal")

    monkeypatch.setattr(verify, "generated_count", never)
    with pytest.raises(ValueError, match=message):
        run_suite(**kwargs)
