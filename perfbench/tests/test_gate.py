"""Self-test of the benchmark's correctness gate.

    python3 -m pytest perfbench/tests

A wrong count and a corrupted stdout must each count as a failed job,
and so raise fail_ratio.
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from ncindiv import counting  # noqa: E402
from workloads import WORKLOADS, fail_ratio, job_problems, load_digests  # noqa: E402

DIGESTS = load_digests()
COUNT_JOB = next(job for job in WORKLOADS["sweep"].jobs if job.id == "count-k-1-n-8")
MDIV_JOB = next(job for job in WORKLOADS["mdiv"].jobs if job.id == "mdiv-k-2-n-3-m-3")
GOOD_COUNT = b"4862\n"
GOOD_MDIV = b"elements 368\ncovers 1050\nminimal elements 136\n"
RECORD = {"imported_at": 0.0}


def problems(job, stdout, oracle=counting, record=RECORD):
    return job_problems(job, 0, stdout, "", record, oracle, DIGESTS)


def wrong_oracle(**overrides):
    """The closed forms with some of them replaced by wrong values."""
    oracle = types.SimpleNamespace(**vars(counting))
    for name, value in overrides.items():
        setattr(oracle, name, lambda *args, value=value: value)
    return oracle


def test_correct_jobs_pass():
    assert problems(COUNT_JOB, GOOD_COUNT) == []
    assert problems(MDIV_JOB, GOOD_MDIV) == []


def test_wrong_expected_count_fails():
    found = problems(COUNT_JOB, GOOD_COUNT, oracle=wrong_oracle(nc_cardinality=4863))
    assert found == ["count: observed 4862, closed form 4863"]


def test_corrupted_stdout_fails_on_digest_alone():
    # same count, different bytes: only the digest catches it
    found = problems(MDIV_JOB, GOOD_MDIV.replace(b"covers 1050", b"covers 1051"))
    assert found == ["stdout differs from the recorded digest"]


def test_traced_count_is_checked():
    record = {
        "imported_at": 0.0,
        "trace": {"results": [{
            "fn": "mdivisible.build_mdiv_poset",
            "params": {"k": 2, "n": 3, "m": 3},
            "counts": {"mdivisible.elements": 367, "mdivisible.covers": 1050},
        }]},
    }
    assert problems(MDIV_JOB, GOOD_MDIV, record=record) == [
        "traced mdivisible.elements {'k': 2, 'n': 3, 'm': 3}: observed 367, closed form 368"
    ]


def test_each_failure_raises_fail_ratio():
    per_job = [
        problems(COUNT_JOB, GOOD_COUNT),
        problems(MDIV_JOB, GOOD_MDIV),
        problems(COUNT_JOB, GOOD_COUNT, oracle=wrong_oracle(nc_cardinality=4863)),
        problems(MDIV_JOB, GOOD_MDIV.replace(b"1050", b"1051")),
    ]
    assert fail_ratio(per_job[:2]) == 0
    assert fail_ratio(per_job) == 0.5


def test_crash_without_record_fails():
    found = job_problems(
        COUNT_JOB, 1, b"", "Traceback (most recent call last):\n", None, counting, DIGESTS
    )
    assert found[:3] == ["exit code 1", "traceback on stderr", "no job record was written"]
