"""One benchmark job, run in a fresh interpreter by `run.py`.

    python3 perfbench/child.py RECORD TRACE cli ARGV...
    python3 perfbench/child.py RECORD TRACE tour K,N [K,N ...]

`cli` runs `ncindiv.cli.main(ARGV)`, as the `ncindiv` command would.
`tour` runs the README quick tour through the library for each (k, n)
and prints one JSON line per poset.  The program's own output goes to
stdout untouched; the job's timings (and, with TRACE 1, its spans and
counters) go to the RECORD file as JSON.

`imported_at` is read from CLOCK_MONOTONIC, which is system-wide on
Linux, so the parent subtracts its own spawn time from it.
"""

import json
import sys
import time


def quick_tour(pairs: list[str]) -> int:
    from ncindiv import perm, poset

    for pair in pairs:
        k, n = (int(x) for x in pair.split(","))
        diagram = poset.build_poset(perm.KParams(k, n))
        record = {
            "k": k,
            "n": n,
            "size": len(diagram),
            "rank_census": sorted(diagram.rank_census().items()),
            "maximal_chains": diagram.maximal_chain_count(),
            "mobius": diagram.mobius_invariant(),
            "multichains_q3": diagram.multichain_count(3),
        }
        print(json.dumps(record, sort_keys=True))
    return 0


def main() -> int:
    record_path, traced, kind, *argv = sys.argv[1:]
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: the largest import)

    numpy_done = time.perf_counter()
    import ncindiv.cli

    ncindiv_done = time.perf_counter()
    record = {
        "imported_at": time.monotonic(),
        "numpy_import_s": numpy_done - started,
        "ncindiv_import_s": ncindiv_done - numpy_done,
    }
    tracer = None
    if traced == "1":
        from spans import Tracer

        tracer = Tracer.install()
    if kind == "cli":
        code = ncindiv.cli.main(argv)
    elif kind == "tour":
        code = quick_tour(argv)
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    sys.stdout.flush()
    if tracer is not None:
        record["trace"] = tracer.record()
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
