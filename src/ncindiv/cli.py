"""Command-line interface.

One subcommand per capability: exact counts, enumeration, poset and
Cambrian exports, chain/zeta/Mobius evaluations, the m-divisible
extension, Hurwitz orbits, the bijection pipeline, the nonnesting side,
the type B lab, and the full verification suite.  Output is
deterministic for fixed flags: enumerations are sorted and no
timestamps appear in any data stream.

Exit codes: 0 on success, 1 when `verify` finds a failing check, 2 on
usage errors, refusals and unwritable output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

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

FULL_POSET_MAX_N = 13  # refuse rather than hang on oversized builds
CAMBRIAN_MAX_FACTORIZATIONS = 100_000  # build_cambrian lists every one


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_json_list(records, out: str | None) -> None:
    """Write what _emit(json.dumps(list(records), indent=2), out) would,
    one record at a time, so the whole list is never held.  records must
    not be empty."""
    with open(out, "w") if out is not None else nullcontext(sys.stdout) as handle:
        sep = "[\n"
        for rec in records:
            handle.write(sep + "  " + json.dumps(rec, indent=2).replace("\n", "\n  "))
            sep = ",\n"
        handle.write("\n]\n")


def _params(args) -> KParams:
    return KParams(args.k, args.n)


def _guard_poset_size(params: KParams) -> None:
    if params.N > FULL_POSET_MAX_N:
        raise ValueError(
            f"refusing full poset build at N = {params.N} > {FULL_POSET_MAX_N}"
        )


def cmd_count(args) -> int:
    params = _params(args)
    if args.jumps is not None:
        jumps = tuple(int(x) for x in args.jumps.split(","))
        _emit(str(rank_jump_count(params.n, params.k, jumps)), args.out)
    elif args.rank is not None:
        _emit(str(nc_rank_count(params.n, params.k, args.rank)), args.out)
    elif args.m is not None:
        _emit(str(mdiv_cardinality(params.n, params.k, args.m)), args.out)
    else:
        _emit(str(nc_cardinality(params.n, params.k)), args.out)
    return 0


def cmd_enumerate(args) -> int:
    params = _params(args)
    _guard_poset_size(params)
    elements = enumerate_nc(params)
    if args.rank is not None:
        elements = [e for e in elements if e.rank == args.rank]
    if args.format == "json":
        _emit(json.dumps([e.to_record() for e in elements], indent=2), args.out)
    else:
        _emit("\n".join(str(e) for e in elements), args.out)
    return 0


def cmd_poset(args) -> int:
    params = _params(args)
    _guard_poset_size(params)
    poset = build_poset(params)
    if args.format == "dot":
        _emit(poset.to_dot("nc_poset"), args.out)
    elif args.format == "csv":
        _emit(poset.rank_census_csv(), args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "size": len(poset),
                    "covers": sorted(poset.covers),
                    "elements": [e.to_record() for e in poset.elements],
                },
                indent=2,
            ),
            args.out,
        )
    else:
        census = ", ".join(
            f"{r}:{c}" for r, c in sorted(poset.rank_census().items())
        )
        _emit(
            f"elements {len(poset)}\ncovers {len(poset.covers)}\n"
            f"rank census {census}",
            args.out,
        )
    return 0


def cmd_chains(args) -> int:
    params = _params(args)
    _emit(str(chain_count(params.n, params.k)), args.out)
    return 0


def cmd_zeta(args) -> int:
    params = _params(args)
    if args.m is not None:
        _emit(str(mdiv_zeta_value(params.n, params.k, args.m, args.q)), args.out)
    else:
        _emit(str(zeta_value(params.n, params.k, args.q)), args.out)
    return 0


def cmd_mobius(args) -> int:
    params = _params(args)
    if args.m is not None:
        record = {
            "bottom_adjoined": mdiv_mobius_hat(params.n, params.k, args.m),
            "minima_merged": mdiv_mobius_bar(params.n, params.k, args.m),
        }
        if args.format == "json":
            _emit(json.dumps(record, indent=2), args.out)
        else:
            _emit(
                f"bottom adjoined {record['bottom_adjoined']}\n"
                f"minima merged {record['minima_merged']}",
                args.out,
            )
    else:
        _emit(str(mobius_invariant(params.n, params.k)), args.out)
    return 0


def cmd_mdiv(args) -> int:
    params = _params(args)
    _guard_poset_size(params)
    poset = build_mdiv_poset(params, args.m)
    if args.format == "dot":
        _emit(poset.to_dot("mdiv_poset"), args.out)
    elif args.format == "csv":
        _emit(poset.rank_census_csv(), args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "m": args.m,
                    "size": len(poset),
                    "elements": sorted(str(c) for c in poset.elements),
                },
                indent=2,
            ),
            args.out,
        )
    else:
        _emit(
            f"elements {len(poset)}\ncovers {len(poset.covers)}\n"
            f"minimal elements {len(poset.minimal_elements())}",
            args.out,
        )
    return 0


def cmd_hurwitz(args) -> int:
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
        _emit(json.dumps(record, indent=2), args.out)
    else:
        _emit(
            "\n".join(f"{key} {value}" for key, value in record.items()),
            args.out,
        )
    return 0


def cmd_cambrian(args) -> int:
    params = _params(args)
    count = chain_count(params.n, params.k)
    if count > CAMBRIAN_MAX_FACTORIZATIONS:
        raise ValueError(
            f"refusing Cambrian build over {count} factorizations"
            f" > {CAMBRIAN_MAX_FACTORIZATIONS}"
        )
    poset = build_cambrian(params)
    if args.format == "dot":
        _emit(poset.to_dot("cambrian"), args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                {
                    "k": params.k,
                    "n": params.n,
                    "size": len(poset),
                    "covers": sorted(poset.covers),
                    "dissections": [d.to_record() for d in poset.elements],
                },
                indent=2,
            ),
            args.out,
        )
    else:
        _emit(
            f"dissections {len(poset)}\ncovers {len(poset.covers)}\n"
            f"lattice {poset.is_lattice()}",
            args.out,
        )
    return 0


def cmd_bijection(args) -> int:
    params = _params(args)
    _guard_poset_size(params)
    rows = []
    for element in enumerate_nc(params):
        p1, p2 = nc_to_paths(element)
        rows.append((str(element), compose_path(p1, p2, params)))
    if args.format == "json":
        _emit(
            json.dumps(
                [{"cycles": c, "path": p} for c, p in rows], indent=2
            ),
            args.out,
        )
    else:
        _emit("\n".join(f"{c}\t{p}" for c, p in rows), args.out)
    return 0


def cmd_nonnesting(args) -> int:
    params = _params(args)
    _guard_poset_size(params)
    rows = nonnesting_rows(params)
    if args.format == "json":
        _emit_json_list(
            (
                {"path": p, "arcs": [list(a) for a in counts_to_arcs(counts, params.k)]}
                for p, counts in rows
            ),
            args.out,
        )
    else:
        _emit("\n".join(p for p, _counts in rows), args.out)
    return 0


def cmd_typeb_orbit(args) -> int:
    params = _params(args)
    checks = typeb_report(params.n, params.k, max_states=args.max_states)
    record = [
        {
            "name": c.name,
            "observed": c.observed,
            "conjectured": c.conjectured,
            "status": c.status,
        }
        for c in checks
    ]
    if args.format == "json":
        _emit(json.dumps(record, indent=2), args.out)
    else:
        _emit(
            "\n".join(
                f"{c['status']:4s} {c['name']}: observed {c['observed']}, "
                f"conjectured {c['conjectured']}"
                for c in record
            ),
            args.out,
        )
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(
        max_n=args.max_n, max_k=args.max_k, max_states=args.max_states
    )
    report = suite_report(checks)
    _emit(format_report(report, as_json=args.format == "json"), args.out)
    return 1 if report["failed"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncindiv",
        description="k-indivisible noncrossing partitions: counts, posets, "
        "bijections, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, kn=True, formats=None, default_format="text"):
        p = sub.add_parser(name, help=help_text)
        if kn:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        if formats:
            p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("count", cmd_count, "exact closed-form counts")
    p.add_argument("--m", type=int, help="count m-divisible elements instead")
    p.add_argument("--rank", type=int, help="count a single rank")
    p.add_argument("--jumps", help="comma list: count multichains by rank jumps")

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

    p = add("typeb-orbit", cmd_typeb_orbit, "type B experimental report",
            formats=("text", "json"))
    p.add_argument("--max-states", type=int)

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
        return args.func(args)
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # a last resort: the request outgrew memory despite the refusals
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
