"""Command-line interface.

One subcommand per capability: exact counts, enumeration, poset and
Cambrian exports, chain/zeta/Mobius evaluations, the m-divisible
extension, Hurwitz orbits, the bijection pipeline, the nonnesting side,
the type B lab, and the full verification suite.  Output is
deterministic for fixed flags: the package defines every printed
order (none is set iteration's) and no data stream has a timestamp.

Each `cmd_*` handler only computes: it returns its output, a string or,
for the streamed `nonnesting --format json`, an iterator of string
chunks.  `main` alone writes it, to stdout or the `--out` file, and sets
the exit code: 0 on success, 1 when `verify` finds a failing check or an
internal check (an AssertionError) fails, 2 on usage errors, refusals,
unwritable output files and exhausted memory.  The size caps live in the
layers that allocate (`nc.ENUMERATION_MAX_N`,
`geometry.CAMBRIAN_MAX_DISSECTIONS`, the orbit cap of `hurwitz` and the
`kn <= 6` limit of `typeb`); this module has none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .bijections import compose_path, counts_to_arcs, nc_to_paths, nonnesting_rows
from .counting import (
    chain_count,
    mdiv_cardinality,
    mdiv_mobius_bar,
    mdiv_mobius_hat,
    mdiv_zeta_value,
    mobius_invariant,
    nc_cardinality,
    nc_rank_count,
    rank_jump_count,
    zeta_value,
)
from .geometry import build_cambrian
from .hurwitz import orbit_and_class_report
from .mdivisible import build_mdiv_poset
from .nc import enumerate_nc
from .perm import KParams
from .poset import build_poset
from .typeb import typeb_report
from .verify import format_report, run_suite, suite_report


class ChecksFailed(Exception):
    """Raised by cmd_verify, with its report as the one argument, when a
    check fails: main writes the report and exits 1."""


def _write(output: str | Iterable[str], out: str | None) -> None:
    """Write a handler's output to the --out file or stdout: a string,
    given a final newline if it lacks one, or its chunks as they are.
    A write that fails part way removes the --out file, so no truncated
    file is left."""
    if isinstance(output, str):
        output = [output if output.endswith("\n") else output + "\n"]
    if out is None:
        sys.stdout.writelines(output)
        return
    with open(out, "w") as handle:
        try:
            handle.writelines(output)
        except BaseException:
            handle.close()
            os.remove(out)
            raise


def _json_list_chunks(records) -> Iterator[str]:
    """The text json.dumps(list(records), indent=2) plus a newline, one
    record at a time, so the whole list is never held.  records must
    not be empty."""
    sep = "[\n"
    for rec in records:
        yield sep + "  " + json.dumps(rec, indent=2).replace("\n", "\n  ")
        sep = ",\n"
    yield "\n]\n"


def _params(args) -> KParams:
    return KParams(args.k, args.n)


def cmd_count(args) -> str:
    params = _params(args)
    if args.jumps is not None:
        jumps = tuple(int(x) for x in args.jumps.split(","))
        return str(rank_jump_count(params.n, params.k, jumps))
    if args.rank is not None:
        return str(nc_rank_count(params.n, params.k, args.rank))
    if args.m is not None:
        return str(mdiv_cardinality(params.n, params.k, args.m))
    return str(nc_cardinality(params.n, params.k))


def cmd_enumerate(args) -> str:
    elements = enumerate_nc(_params(args))
    if args.rank is not None:
        elements = [e for e in elements if e.rank == args.rank]
    if args.format == "json":
        return json.dumps([e.to_record() for e in elements], indent=2)
    return "\n".join(str(e) for e in elements)


def cmd_poset(args) -> str:
    params = _params(args)
    poset = build_poset(params)
    if args.format == "dot":
        return poset.to_dot("nc_poset")
    if args.format == "csv":
        return poset.rank_census_csv()
    if args.format == "json":
        return json.dumps(
            {
                "k": params.k,
                "n": params.n,
                "size": len(poset),
                "covers": sorted(poset.covers),
                "elements": [e.to_record() for e in poset.elements],
            },
            indent=2,
        )
    census = ", ".join(f"{r}:{c}" for r, c in sorted(poset.rank_census().items()))
    return (
        f"elements {len(poset)}\ncovers {len(poset.covers)}\n"
        f"rank census {census}"
    )


def cmd_chains(args) -> str:
    params = _params(args)
    return str(chain_count(params.n, params.k))


def cmd_zeta(args) -> str:
    params = _params(args)
    if args.m is not None:
        return str(mdiv_zeta_value(params.n, params.k, args.m, args.q))
    return str(zeta_value(params.n, params.k, args.q))


def cmd_mobius(args) -> str:
    params = _params(args)
    if args.m is None:
        return str(mobius_invariant(params.n, params.k))
    record = {
        "bottom_adjoined": mdiv_mobius_hat(params.n, params.k, args.m),
        "minima_merged": mdiv_mobius_bar(params.n, params.k, args.m),
    }
    if args.format == "json":
        return json.dumps(record, indent=2)
    return (
        f"bottom adjoined {record['bottom_adjoined']}\n"
        f"minima merged {record['minima_merged']}"
    )


def cmd_mdiv(args) -> str:
    params = _params(args)
    poset = build_mdiv_poset(params, args.m)
    if args.format == "dot":
        return poset.to_dot("mdiv_poset")
    if args.format == "csv":
        return poset.rank_census_csv()
    if args.format == "json":
        return json.dumps(
            {
                "k": params.k,
                "n": params.n,
                "m": args.m,
                "size": len(poset),
                "elements": sorted(str(c) for c in poset.elements),
            },
            indent=2,
        )
    return (
        f"elements {len(poset)}\ncovers {len(poset.covers)}\n"
        f"minimal elements {len(poset.minimal_elements())}"
    )


def cmd_hurwitz(args) -> str:
    params = _params(args)
    report = orbit_and_class_report(params, max_states=args.max_states)
    record = {
        "k": params.k,
        "n": params.n,
        "start": "|".join(
            "(" + " ".join(str(x) for x in range(i * params.k + 1, i * params.k + params.k + 2)) + ")"
            for i in range(params.n)
        ),
        "orbit_size": report["orbit_size"],
        "expected": report["expected"],
        "transitive": report["transitive"],
        "commutation_classes": report["class_count"],
    }
    if args.format == "json":
        return json.dumps(record, indent=2)
    return "\n".join(f"{key} {value}" for key, value in record.items())


def cmd_cambrian(args) -> str:
    params = _params(args)
    poset = build_cambrian(params)
    if args.format == "dot":
        return poset.to_dot("cambrian")
    if args.format == "json":
        return json.dumps(
            {
                "k": params.k,
                "n": params.n,
                "size": len(poset),
                "covers": sorted(poset.covers),
                "dissections": [d.to_record() for d in poset.elements],
            },
            indent=2,
        )
    return (
        f"dissections {len(poset)}\ncovers {len(poset.covers)}\n"
        f"lattice {poset.is_lattice()}"
    )


def cmd_bijection(args) -> str:
    params = _params(args)
    rows = []
    for element in enumerate_nc(params):
        p1, p2 = nc_to_paths(element)
        rows.append((str(element), compose_path(p1, p2, params)))
    if args.format == "json":
        return json.dumps([{"cycles": c, "path": p} for c, p in rows], indent=2)
    return "\n".join(f"{c}\t{p}" for c, p in rows)


def cmd_nonnesting(args) -> str | Iterator[str]:
    params = _params(args)
    rows = nonnesting_rows(params)
    if args.format == "json":
        return _json_list_chunks(
            {"path": p, "arcs": [list(a) for a in counts_to_arcs(counts, params.k)]}
            for p, counts in rows
        )
    return "\n".join(p for p, _counts in rows)


def cmd_typeb_orbit(args) -> str:
    params = _params(args)
    checks = typeb_report(params.n, params.k)
    if args.format == "json":
        record = [
            {
                "name": c.claim,
                "observed": c.observed,
                "conjectured": c.closed_form,
                "status": c.status,
            }
            for c in checks
        ]
        return json.dumps(record, indent=2)
    return "\n".join(
        f"{c.status:4s} {c.claim}: observed {c.observed}, conjectured {c.closed_form}"
        for c in checks
    )


def cmd_verify(args) -> str:
    checks = run_suite(
        max_n=args.max_n, max_k=args.max_k, max_states=args.max_states
    )
    report = suite_report(checks)
    text = format_report(report, as_json=args.format == "json")
    if report["failed"]:
        raise ChecksFailed(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncindiv",
        description="k-indivisible noncrossing partitions: counts, posets, "
        "bijections, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, kn=True, formats=None):
        p = sub.add_parser(name, help=help_text)
        if kn:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    group = add("count", cmd_count, "exact closed-form counts").add_mutually_exclusive_group()
    group.add_argument("--m", type=int, help="count m-divisible elements instead")
    group.add_argument("--rank", type=int, help="count a single rank")
    group.add_argument("--jumps", help="comma list: count multichains by rank jumps")

    p = add("enumerate", cmd_enumerate, "list the noncrossing partitions",
            formats=("text", "json"))
    p.add_argument("--rank", type=int, help="restrict to one rank")

    add("poset", cmd_poset, "export the partition poset",
        formats=("text", "dot", "csv", "json"))
    add("chains", cmd_chains, "number of maximal chains")

    p = add("zeta", cmd_zeta, "zeta polynomial value (multichain count)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, help="use the m-divisible poset")

    p = add("mobius", cmd_mobius, "Mobius invariant", formats=("text", "json"))
    p.add_argument("--m", type=int, help="use the m-divisible completions")

    p = add("mdiv", cmd_mdiv, "export the m-divisible poset",
            formats=("text", "dot", "csv", "json"))
    p.add_argument("--m", type=int, required=True)

    p = add("hurwitz", cmd_hurwitz, "Hurwitz orbit report",
            formats=("text", "json"))
    p.add_argument("--max-states", type=int)

    add("cambrian", cmd_cambrian, "export the Cambrian poset of dissections",
        formats=("text", "dot", "json"))
    add("bijection", cmd_bijection, "partition-to-lattice-path table",
        formats=("text", "json"))
    add("nonnesting", cmd_nonnesting, "enumerate nonnesting order ideals",
        formats=("text", "json"))

    add("typeb-orbit", cmd_typeb_orbit, "type B experimental report",
        formats=("text", "json"))

    p = add("verify", cmd_verify, "run the verification suite",
            kn=False, formats=("text", "json"))
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-states", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            output, code = args.func(args), 0
        except ChecksFailed as failed:
            output, code = failed.args[0], 1
        _write(output, args.out)
        return code
    except AssertionError as exc:
        sys.stderr.write(f"error: internal check failed: {exc}\n")
        return 1
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # a last resort: the request outgrew memory despite the refusals
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
