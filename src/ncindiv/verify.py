"""Desk-scale verification suite: closed forms against brute force.

Every check compares an exact closed-form count with an independently
computed observed value and reports PASS or FAIL.  The experimental
type B comparisons are reported as PASS or OPEN; an OPEN status is
data, not an error, and never fails a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .bijections import enumerate_ideals, nc_to_nn, nn_to_nc
from .counting import (
    bareiss_determinant,
    chain_count,
    commutation_class_count,
    mdiv_cardinality,
    mdiv_mobius_bar,
    mdiv_mobius_hat,
    mdiv_zeta_value,
    mobius_invariant,
    nc_cardinality,
    nc_matrix,
    nc_rank_count,
    zeta_value,
)
from .hurwitz import check_orbit_size, orbit_and_class_report
from .mdivisible import mdiv_sums
from .nc import check_ground_set, generated_rank_census
from .perm import KParams
from .poset import build_poset
from .typeb import typeb_report


@dataclass(frozen=True)
class Check:
    """One verification item: a closed form against an observation."""

    claim: str
    closed_form: object
    observed: object
    conjectural: bool = False

    @property
    def status(self) -> str:
        if self.closed_form == self.observed:
            return "PASS"
        return "OPEN" if self.conjectural else "FAIL"

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "closed_form": self.closed_form,
            "observed": self.observed,
            "status": self.status,
        }


def _params_in_range(max_n: int, max_k: int):
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            yield KParams(k, n)


def _claims(params: KParams, max_states: int | None):
    """(claim, closed form, observed) for every claim at one (k, n), in
    report order.  Each layer runs just before its first claim, so the
    layers run, and can raise, in the order of the report."""
    k, n = params.k, params.n
    tag = f"k={k},n={n}"

    census = generated_rank_census(params)
    yield f"cardinality [{tag}]", nc_cardinality(n, k), sum(census.values())
    yield (
        f"rank census [{tag}]",
        {r: nc_rank_count(n, k, r) for r in range(n + 1)},
        {r: census.get(r, 0) for r in range(n + 1)},
    )

    poset = build_poset(params)
    yield f"maximal chains [{tag}]", chain_count(n, k), poset.maximal_chain_count()
    for q in (1, 2, 3):
        yield f"zeta at q={q} [{tag}]", zeta_value(n, k, q), poset.multichain_count(q)
    yield f"Mobius invariant [{tag}]", mobius_invariant(n, k), poset.mobius_invariant()

    report = orbit_and_class_report(params, max_states=max_states)
    yield f"Hurwitz transitivity [{tag}]", chain_count(n, k), report["orbit_size"]
    yield (
        f"commutation classes [{tag}]",
        commutation_class_count(n, k),
        report["class_count"],
    )
    yield (
        f"determinant [{tag}]",
        nc_cardinality(n, k),
        bareiss_determinant(nc_matrix(n, k)),
    )

    ideals = enumerate_ideals(params)
    yield f"nonnesting ideal count [{tag}]", nc_cardinality(n, k), len(ideals)
    yield (
        f"nonnesting round trip [{tag}]",
        True,
        all(nc_to_nn(nn_to_nc(ideal)) == ideal for ideal in ideals),
    )

    sums = mdiv_sums(poset, 3)
    for m in (2, 3):
        mtag = f"{tag},m={m}"
        size, pairs, mobius_hat, mobius_bar = sums[m - 1]
        yield f"m-divisible cardinality [{mtag}]", mdiv_cardinality(n, k, m), size
        yield f"m-divisible zeta at q=2 [{mtag}]", mdiv_zeta_value(n, k, m, 2), pairs
        yield (
            f"m-divisible Mobius (bottom adjoined) [{mtag}]",
            mdiv_mobius_hat(n, k, m),
            mobius_hat,
        )
        yield (
            f"m-divisible Mobius (minima merged) [{mtag}]",
            mdiv_mobius_bar(n, k, m),
            mobius_bar,
        )


def run_suite(max_n: int = 3, max_k: int = 3, max_states: int | None = None) -> list[Check]:
    """The full desk-scale suite over all (k, n) with k <= max_k and
    n <= max_n.  Defaults keep the run in the seconds range.  A range
    that a layer would refuse, or an empty one, is refused before the
    first check."""
    if max_n < 1 or max_k < 1:
        raise ValueError("need max_n >= 1 and max_k >= 1")
    for params in _params_in_range(max_n, max_k):
        check_ground_set(params)
        check_orbit_size(params, max_states)
    checks: list[Check] = []
    for params in _params_in_range(max_n, max_k):
        checks += (Check(*c) for c in _claims(params, max_states))

    # experimental type B comparisons: PASS or OPEN, never FAIL
    for params in _params_in_range(max_n, max_k):
        k, n = params.k, params.n
        if k * n <= 4:
            checks += (
                replace(c, claim=f"type B {c.claim} [k={k},n={n}]")
                for c in typeb_report(n, k)
            )
    return checks


def suite_report(checks: list[Check]) -> dict:
    statuses = [c.status for c in checks]
    return {
        "checks": [c.to_record() for c in checks],
        "total": len(checks),
        "passed": statuses.count("PASS"),
        "failed": statuses.count("FAIL"),
        "open": statuses.count("OPEN"),
    }


def format_report(report: dict, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(report, indent=2, default=str)
    lines = []
    for rec in report["checks"]:
        lines.append(f"{rec['status']:4s} {rec['claim']}: "
                     f"closed form {rec['closed_form']}, observed {rec['observed']}")
    lines.append(
        f"total {report['total']}: {report['passed']} passed, "
        f"{report['failed']} failed, {report['open']} open"
    )
    return "\n".join(lines)
