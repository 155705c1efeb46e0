"""Compare two commits on the benchmark, by alternating parent/change pairs.

    python3 perfbench/compare.py --parent HEAD~1 --change HEAD
    python3 perfbench/compare.py --parent HEAD~1 --change . --workloads orbit,mdiv

Each side is a git revision (its `src/` is exported with `git archive`)
or a directory holding `src/ncindiv`.  Both sides run with this
checkout's benchmark code and with BENCHMARK.json's run_seconds.  There
are ten pairs per workload; pair i runs both sides with seed 1000 + i,
the parent first in even pairs and the change first in odd ones.  For
each (workload, end-to-end metric) the report gives each side's median
and quartiles, the fraction of pairs the change won (ties count for
neither), and a verdict:

  failed              a job failed on the change side; no gain counts
  better              the change won at least 9/10 of the pairs and the
                      medians differ by more than the parent's quartile
                      spread
  unresolved          a side's spread (quartile distance over median) is
                      wider than the metric's bound
  worse beyond bound  the change's median is worse than the parent's by
                      more than the bound
  within bound        none of the above

A directory side runs from its own path, not from results/trees/<sha>.
Identical code compared that way read `peak_rss_mb` 0.2 MB apart and
"better", so compare two revisions for a clean memory verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TREES = os.path.join(HERE, "results", "trees")
PAIRS = 10
SEED_BASE = 1000


def source_tree(rev: str) -> str:
    """A directory whose `src/` holds the side's ncindiv package."""
    if os.path.isdir(os.path.join(rev, "src", "ncindiv")):
        return os.path.abspath(rev)
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest = os.path.join(TREES, sha)
    if not os.path.isdir(dest):
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha, "src"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", os.path.join(tree, "src")],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark failed on {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    return statistics.quantiles(values, n=4)


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            change_failed: int = 0) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0) / len(parent)
    if change_failed:
        return "failed", wins
    p_q1, p_med, p_q3 = spread(parent)
    c_q1, c_med, c_q3 = spread(change)
    if wins >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "better", wins
    if (p_q3 - p_q1) / p_med > bound or (c_q3 - c_q1) / c_med > bound:
        every_change_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better" if every_change_better else "unresolved"), wins
    if sign * (c_med - p_med) < -bound * p_med:
        return "worse beyond bound", wins
    return "within bound", wins


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    trees = {"parent": source_tree(args.parent), "change": source_tree(args.change)}

    results = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(
                    run_once(trees[side], workload, SEED_BASE + i, bench["run_seconds"])
                )
        results[workload] = runs

    rows = []
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>5s}  verdict")
    for workload, runs in results.items():
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            outcome, wins = verdict(
                values["parent"], values["change"], metric["better"], metric["bound"],
                failed["change"],
            )
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "verdict": outcome, "wins": wins, "failed": failed}
            cells = []
            for side in ("parent", "change"):
                q1, median, q3 = spread(values[side])
                row[side] = {"median": median, "q1": q1, "q3": q3, "values": values[side]}
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {metric['unit']}")
            rows.append(row)
            print(f"{workload:9s} {name:12s} {cells[0]:>32s} {cells[1]:>32s} {wins:5.2f}  {outcome}")
        print(f"{workload:9s} failed jobs: parent {failed['parent']}, change {failed['change']}")
    os.makedirs(os.path.dirname(TREES), exist_ok=True)
    out = os.path.join(HERE, "results", "compare.json")
    with open(out, "w") as handle:
        json.dump({"parent": args.parent, "change": args.change, "pairs": PAIRS,
                   "seed": SEED_BASE, "seconds": bench["run_seconds"], "rows": rows},
                  handle, indent=1)
    print(f"written {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
