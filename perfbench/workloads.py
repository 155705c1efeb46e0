"""The benchmark's workloads and the correctness gate for their jobs.

Every input is an exact (k, n[, m]) parameter set; the seed only orders
the jobs.  A job fails when it exits nonzero, prints a traceback, gives a
count that differs from the closed forms in `ncindiv.counting`, or
writes stdout whose SHA-256 differs from `digests.json`, which was
recorded at the commit that added the benchmark (stdout must stay
byte-identical).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# The default `verify` suite (k, n <= 3 with type B) runs this many checks;
# its stdout digest pins the number.
VERIFY_DEFAULT_CHECKS = 204


@dataclass(frozen=True)
class Job:
    """One `ncindiv` invocation in a fresh interpreter."""

    id: str  # key of digests.json
    kind: str  # "cli": ncindiv.cli.main(argv); "tour": the README quick tour
    argv: tuple[str, ...]
    check: Callable  # (stdout text, counting module) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what units_per_s counts
    units: Callable  # counting module -> work units in one rep
    jobs: tuple[Job, ...]


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.rpartition(" ")
        out[key] = value
    return out


def _expect(problems: list[str], what: str, observed, expected) -> None:
    if observed != expected:
        problems.append(f"{what}: observed {observed}, closed form {expected}")


def _rank_census(counting, k: int, n: int) -> dict[int, int]:
    return {r: counting.nc_rank_count(n, k, r) for r in range(n + 1)}


def check_hurwitz(k: int, n: int):
    def check(text: str, counting) -> list[str]:
        report, problems = _key_values(text), []
        _expect(problems, "orbit_size", int(report["orbit_size"]), counting.chain_count(n, k))
        _expect(problems, "transitive", report["transitive"], "True")
        _expect(
            problems, "commutation_classes",
            int(report["commutation_classes"]), counting.commutation_class_count(n, k),
        )
        return problems

    return check


def check_enumerate_json(k: int, n: int):
    def check(text: str, counting) -> list[str]:
        records, problems = json.loads(text), []
        N = k * n + 1
        census: dict[int, int] = {}
        for rec in records:
            moved = sum(len(c) for c in rec["cycles"])
            blocks = len(rec["cycles"]) + N - moved
            census[(N - blocks) // k] = census.get((N - blocks) // k, 0) + 1
        _expect(problems, "elements", len(records), counting.nc_cardinality(n, k))
        _expect(problems, "rank census", census, _rank_census(counting, k, n))
        return problems

    return check


def check_tour(pairs: tuple[tuple[int, int], ...]):
    def check(text: str, counting) -> list[str]:
        records, problems = [json.loads(line) for line in text.splitlines()], []
        _expect(problems, "posets", [(r["k"], r["n"]) for r in records], list(pairs))
        for rec in records:
            k, n, tag = rec["k"], rec["n"], f"(k={rec['k']},n={rec['n']})"
            _expect(problems, f"size {tag}", rec["size"], counting.nc_cardinality(n, k))
            _expect(
                problems, f"rank census {tag}",
                dict(rec["rank_census"]), _rank_census(counting, k, n),
            )
            _expect(problems, f"maximal chains {tag}", rec["maximal_chains"], counting.chain_count(n, k))
            _expect(problems, f"Mobius {tag}", rec["mobius"], counting.mobius_invariant(n, k))
            _expect(problems, f"multichains q=3 {tag}", rec["multichains_q3"], counting.zeta_value(n, k, 3))
        return problems

    return check


def check_mdiv(k: int, n: int, m: int):
    def check(text: str, counting) -> list[str]:
        problems = []
        _expect(
            problems, "m-chains",
            int(_key_values(text)["elements"]), counting.mdiv_cardinality(n, k, m),
        )
        return problems

    return check


def check_verify(text: str, counting) -> list[str]:
    # last line: "total T: P passed, F failed, O open"
    words = text.splitlines()[-1].replace(":", "").replace(",", "").split()
    total, failed = int(words[1]), int(words[4])
    problems = []
    _expect(problems, "verify checks", total, VERIFY_DEFAULT_CHECKS)
    _expect(problems, "verify failed", failed, 0)
    return problems


def check_cambrian(k: int, n: int):
    def check(text: str, counting) -> list[str]:
        report, problems = _key_values(text), []
        _expect(
            problems, "dissections",
            int(report["dissections"]), counting.commutation_class_count(n, k),
        )
        _expect(problems, "lattice", report["lattice"], "True")
        return problems

    return check


def check_nonnesting(k: int, n: int):
    def check(text: str, counting) -> list[str]:
        problems = []
        _expect(problems, "staircase paths", len(text.splitlines()), counting.nc_cardinality(n, k))
        return problems

    return check


def check_count(k: int, n: int):
    def check(text: str, counting) -> list[str]:
        problems = []
        _expect(problems, "count", int(text), counting.nc_cardinality(n, k))
        return problems

    return check


def cli_job(*argv: str, check) -> Job:
    return Job("-".join(a.lstrip("-") for a in argv), "cli", argv, check)


def kn(k: int, n: int, *rest: str) -> tuple[str, ...]:
    return ("--k", str(k), "--n", str(n)) + rest


TOUR = ((1, 8), (2, 5))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit",
            "orbit states",
            lambda c: c.chain_count(7, 1) + c.chain_count(5, 2),
            (
                cli_job("hurwitz", *kn(1, 7), check=check_hurwitz(1, 7)),
                cli_job("hurwitz", *kn(2, 5), check=check_hurwitz(2, 5)),
            ),
        ),
        Workload(
            "poset",
            "poset elements",
            lambda c: c.nc_cardinality(9, 1) + sum(c.nc_cardinality(n, k) for k, n in TOUR),
            (
                cli_job("enumerate", *kn(1, 9, "--format", "json"), check=check_enumerate_json(1, 9)),
                Job("tour-1,8-2,5", "tour", tuple(f"{k},{n}" for k, n in TOUR), check_tour(TOUR)),
            ),
        ),
        Workload(
            "mdiv",
            "m-chains",
            lambda c: c.mdiv_cardinality(4, 1, 3) + c.mdiv_cardinality(3, 2, 3),
            (
                cli_job("mdiv", *kn(1, 4, "--m", "3"), check=check_mdiv(1, 4, 3)),
                cli_job("mdiv", *kn(2, 3, "--m", "3"), check=check_mdiv(2, 3, 3)),
            ),
        ),
        Workload(
            "sweep",
            "verification checks",
            lambda c: VERIFY_DEFAULT_CHECKS,
            (
                cli_job("verify", check=check_verify),
                cli_job("hurwitz", *kn(3, 4), check=check_hurwitz(3, 4)),
                cli_job("cambrian", *kn(1, 5), check=check_cambrian(1, 5)),
                cli_job("nonnesting", *kn(1, 8), check=check_nonnesting(1, 8)),
                cli_job("count", *kn(1, 8), check=check_count(1, 8)),
            ),
        ),
    )
}

# Traced runs also check the sizes read off the layer results.
TRACE_CLOSED_FORMS = {
    "hurwitz.orbit_and_class_report": lambda c, p: {
        "hurwitz.orbit_states": c.chain_count(p["n"], p["k"]),
        "hurwitz.classes": c.commutation_class_count(p["n"], p["k"]),
    },
    "nc.enumerate_nc": lambda c, p: {"nc.elements": c.nc_cardinality(p["n"], p["k"])},
    "mdivisible.build_mdiv_poset": lambda c, p: {
        "mdivisible.elements": c.mdiv_cardinality(p["n"], p["k"], p["m"]),
    },
    "geometry.build_cambrian": lambda c, p: {
        "geometry.dissections": c.commutation_class_count(p["n"], p["k"]),
    },
    "verify.run_suite": lambda c, p: {"verify.checks": VERIFY_DEFAULT_CHECKS},
}


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_problems(trace: dict, counting) -> list[str]:
    problems = []
    for result in trace["results"]:
        closed_forms = TRACE_CLOSED_FORMS.get(result["fn"])
        if closed_forms is None:
            continue
        for key, expected in closed_forms(counting, result["params"]).items():
            _expect(problems, f"traced {key} {result['params']}", result["counts"][key], expected)
    return problems


def job_problems(
    job: Job, returncode: int, stdout: bytes, stderr: str, record: dict | None,
    counting, digests: dict[str, str],
) -> list[str]:
    """Everything wrong with one finished job; empty when it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if record is None:
        problems.append("no job record was written")
    elif "trace" in record:
        problems += trace_problems(record["trace"], counting)
    if sha256(stdout) != digests.get(job.id):
        problems.append("stdout differs from the recorded digest")
    try:
        problems += job.check(stdout.decode(), counting)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"stdout does not parse: {exc!r}")
    return problems


def fail_ratio(problems_per_job: list[list[str]]) -> float:
    """Failed jobs over attempted jobs."""
    return sum(1 for p in problems_per_job if p) / len(problems_per_job)
