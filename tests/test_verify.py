import json
from collections import Counter

import pytest

from ncindiv import mdivisible, nc, poset, verify
from ncindiv.mdivisible import mdiv_sums
from ncindiv.nc import enumerate_nc
from ncindiv.poset import build_poset
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


def test_default_suite_builds_no_mchain_order(monkeypatch):
    def refuse(params, m):
        raise AssertionError("the m-chain order built during the suite")

    monkeypatch.setattr(mdivisible, "build_mdiv_poset", refuse)
    report = suite_report(run_suite())
    assert report["total"] > 0 and report["failed"] == 0


def test_default_suite_computes_the_mdiv_sums_once_per_params(monkeypatch):
    built, calls = [], []

    def recorded(params):
        built.append(build_poset(params))
        return built[-1]

    def counted(base, m):
        calls.append((base, m))
        return mdiv_sums(base, m)

    monkeypatch.setattr(verify, "build_poset", recorded)
    monkeypatch.setattr(verify, "mdiv_sums", counted)
    run_suite()
    assert len(calls) == len(set(calls)) == 9
    # each call reads the base poset the suite built for its (k, n)
    assert all(base is b for (base, _), b in zip(calls, built, strict=True))


def test_default_suite_lists_each_base_poset_once(monkeypatch):
    listed = []

    def counted(params):
        listed.append(params)
        return enumerate_nc(params)

    monkeypatch.setattr(poset, "enumerate_nc", counted)
    run_suite()
    assert len(listed) == len(set(listed)) == 9


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

    monkeypatch.setattr(verify, "generated_rank_census", never)
    with pytest.raises(ValueError, match=message):
        run_suite(**kwargs)


def test_default_suite_runs_the_generator_twice_per_params(monkeypatch):
    calls = Counter()
    generate = nc._region_partitions

    def counted(lo, hi, k):
        if lo == 1:
            calls[hi, k] += 1
        return generate(lo, hi, k)

    monkeypatch.setattr(nc, "_region_partitions", counted)
    run_suite()
    # the rank census, and enumerate_nc inside build_poset
    assert len(calls) == 9 and set(calls.values()) == {2}
