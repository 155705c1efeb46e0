"""The ncindiv benchmark: fixed `ncindiv` jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1

One benchmark process runs the workload's jobs one at a time (a closed loop
with one client).  A rep runs every job of the workload once, in an order
drawn from the seed, and the run repeats reps until the next one, taking
the median rep time so far, would end after `--seconds`.  Each job is a
new interpreter, so it pays the imports and the cold caches
(`build_poset`, `_factor_tables`, ...) that a user's run pays.  Every
job's output is checked after the rep, outside the timed region (see
workloads.py).

With `--trace 0` the last line of stdout holds the end-to-end metrics,
each the median over the run's reps.  With `--trace 1` the run alternates
untraced and traced reps and the last line holds the per-layer metrics,
read from spans recorded around the layer boundaries (see spans.py).
Timings with quartiles, the provenance and every job are written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, fail_ratio, job_problems, load_digests, sha256  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
RESULTS_DIR = os.path.join(HERE, "results")
# Child environment: one thread everywhere, and a fixed hash seed so set
# iteration order, and with it the work done, repeats from run to run.
ENV_PINS = {
    "NCPK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s, hung jobs included

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "units_per_s": "units/s",
}
SELF_TIMED = (
    "hurwitz.orbit_and_class_report",
    "hurwitz.enumerate_factorizations",
    "hurwitz.commutation_classes",
    "nc.enumerate_nc",
    "perm.covers_below",
    "poset.build_poset",
    "poset.maximal_chain_count",
    "poset.mobius_invariant",
    "poset.multichain_count",
    "mdivisible.build_mdiv_poset",
    "geometry.build_cambrian",
    "bijections.enumerate_ideals",
    "typeb.typeb_report",
    "verify.run_suite",
    "cli.main",
)
MOBIUS_BRUTE = ("mdivisible.mdiv_mobius_hat_brute", "mdivisible.mdiv_mobius_bar_brute")
CALL_COUNTED = ("nc.is_k_indivisible_iii", "perm.covers_below")
COUNTERS = (
    "perm.cycles.calls",
    "perm.mul.calls",
    "hurwitz.orbit_states",
    "hurwitz.classes",
    "nc.elements",
    "poset.covers",
    "mdivisible.elements",
    "mdivisible.covers",
    "geometry.dissections",
    "verify.checks",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "mdivisible.mobius_brute.self_s": "s",
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **{name: "count" for name in COUNTERS},
    "hurwitz.states_per_s": "1/s",
    "cli.stdout_bytes": "bytes",
    "setup.numpy_import_s": "s",
    "setup.ncindiv_import_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class JobRun:
    job: object
    spawned: float
    ended: float
    returncode: int
    cpu_s: float
    rss_mb: float
    paths: dict


def run_job(job, index: int, traced: bool, env: dict, tmp: str, deadline: float) -> JobRun:
    paths = {part: os.path.join(tmp, f"{index}.{part}") for part in ("out", "err", "record")}
    argv = [sys.executable, CHILD, paths["record"], "1" if traced else "0", job.kind, *job.argv]
    with open(paths["out"], "wb") as out, open(paths["err"], "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(
        job, spawned, ended, proc.returncode,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, paths,
    )


def read_job(run: JobRun) -> tuple[bytes, str, dict | None]:
    """The job's stdout, stderr and record; removes its files."""
    with open(run.paths["out"], "rb") as handle:
        stdout = handle.read()
    with open(run.paths["err"], errors="replace") as handle:
        stderr = handle.read()
    record = None
    if os.path.exists(run.paths["record"]):
        with open(run.paths["record"]) as handle:
            record = json.load(handle)
    for path in run.paths.values():
        if os.path.exists(path):
            os.remove(path)
    return stdout, stderr, record


def run_rep(workload, jobs, traced: bool, env: dict, tmp: str, deadline: float,
            counting, digests: dict) -> dict:
    runs = [run_job(job, i, traced, env, tmp, deadline) for i, job in enumerate(jobs)]
    wall_s = runs[-1].ended - runs[0].spawned
    # Everything below is outside the timed region.
    job_records, traces = [], []
    for run in runs:
        stdout, stderr, record = read_job(run)
        problems = job_problems(
            run.job, run.returncode, stdout, stderr, record, counting, digests
        )
        for problem in problems:
            sys.stderr.write(f"{workload.name} {run.job.id}: {problem}\n")
        record = record or {}
        if "trace" in record:
            traces.append((run.job.id, record["trace"]))
        job_records.append({
            "id": run.job.id,
            "exit": run.returncode,
            "stdout_sha256": sha256(stdout),
            "stdout_bytes": len(stdout),
            "wall_s": run.ended - run.spawned,
            "cpu_s": run.cpu_s,
            "peak_rss_mb": run.rss_mb,
            "setup_s": record.get("imported_at", run.ended) - run.spawned,
            "numpy_import_s": record.get("numpy_import_s", 0.0),
            "ncindiv_import_s": record.get("ncindiv_import_s", 0.0),
            "problems": problems,
        })
    return {
        "workload": workload.name,
        "traced": traced,
        "jobs": job_records,
        "traces": traces,
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": sum(r["cpu_s"] for r in job_records),
            "setup_s": sum(r["setup_s"] for r in job_records),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in job_records),
            "units_per_s": workload.units(counting) / wall_s,
        },
    }


def layer_metrics(rep: dict) -> dict:
    """Per-layer numbers of one traced rep, summed over its jobs."""
    calls, total_s, self_s, counters = {}, {}, {}, {}
    for _job_id, trace in rep["traces"]:
        for into, part in ((calls, "calls"), (total_s, "total_s"),
                           (self_s, "self_s"), (counters, "counters")):
            for name, value in trace[part].items():
                into[name] = into.get(name, 0) + value
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    out["mdivisible.mobius_brute.self_s"] = sum(self_s.get(n, 0.0) for n in MOBIUS_BRUTE)
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED})
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    orbit_s = total_s.get("hurwitz.orbit_and_class_report", 0.0)
    out["hurwitz.states_per_s"] = out["hurwitz.orbit_states"] / orbit_s if orbit_s else 0.0
    return out


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(reps: list[dict], trace: bool) -> dict:
    """Metric name -> summary over the run's reps, for one workload."""
    plain = [rep for rep in reps if not rep["traced"]]
    if not trace:
        return {
            name: summary([rep["metrics"][name] for rep in plain]) for name in END_TO_END
        }
    traced = [rep for rep in reps if rep["traced"]]
    per_rep = [layer_metrics(rep) for rep in traced]
    out = {name: summary([m[name] for m in per_rep]) for name in per_rep[0]}
    for part in ("numpy_import_s", "ncindiv_import_s"):
        out[f"setup.{part}"] = summary([sum(j[part] for j in rep["jobs"]) for rep in reps])
    out["cli.stdout_bytes"] = summary([sum(j["stdout_bytes"] for j in rep["jobs"]) for rep in reps])
    untraced_wall = statistics.median(rep["metrics"]["wall_s"] for rep in plain)
    out["trace.overhead"] = summary([rep["metrics"]["wall_s"] / untraced_wall for rep in traced])
    return out


def source_commit(src: str) -> str | None:
    """The git commit of the tree holding `src`, or None outside git.

    A tree that compare.py exported lives in results/trees/<sha>; any
    other tree counts only if it is itself the top of a git checkout.
    """
    tree = os.path.dirname(src)
    if os.path.dirname(tree) == os.path.join(RESULTS_DIR, "trees"):
        return os.path.basename(tree)
    done = subprocess.run(
        ["git", "-C", tree, "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    top, commit = lines
    return commit if os.path.realpath(top) == os.path.realpath(tree) else None


def provenance(src: str) -> dict:
    from importlib import metadata

    src_lines = 0
    package = os.path.join(src, "ncindiv")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "commit": source_commit(src),
        "src": src,
        "src_lines": src_lines,
        "env": ENV_PINS,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="source tree holding the ncindiv package")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "ncindiv", "cli.py")):
        sys.stderr.write(f"error: no ncindiv package under {src}\n")
        return 2
    sys.path.insert(0, src)
    counting = importlib.import_module("ncindiv.counting")
    digests = load_digests()
    # Set-up, untimed: byte-compile once, as an installed package would be.
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    env = {**os.environ, **ENV_PINS, "PYTHONPATH": src}
    tmp = os.path.join(RESULTS_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)

    rng = random.Random(args.seed)
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    reps, rounds, durations = [], [], {False: [], True: []}
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        order = rng.sample(workloads, len(workloads))
        round_start = time.monotonic()
        for workload in order:
            jobs = rng.sample(workload.jobs, len(workload.jobs))
            reps.append(run_rep(workload, jobs, traced, env, tmp, deadline, counting, digests))
        rounds.append([w.name for w in order])
        durations[traced].append(time.monotonic() - round_start)
        next_traced = args.trace == 1 and len(rounds) % 2 == 1
        if not durations[next_traced]:
            continue  # a traced run needs one round of each kind
        now = time.monotonic()
        if now > deadline - 2 * max(durations[next_traced]) or (
            now + statistics.median(durations[next_traced]) - started > args.seconds
        ):
            break

    problems = [job["problems"] for rep in reps for job in rep["jobs"]]
    failed = sum(1 for p in problems if p)
    summaries = {
        w.name: summarize([rep for rep in reps if rep["workload"] == w.name], args.trace == 1)
        for w in workloads
    }
    units = {**END_TO_END, **PER_LAYER}
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "provenance": provenance(src),
        "attempted": len(problems),
        "failed": failed,
        "fail_ratio": fail_ratio(problems),
        "summaries": summaries,
        "reps": [{key: value for key, value in rep.items() if key != "traces"} for rep in reps],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    traced_reps = [rep for rep in reps if rep["traced"]]
    if traced_reps:
        with open(os.path.join(RESULTS_DIR, stem + ".spans.json"), "w") as handle:
            json.dump(
                [{"job": job_id, "spans": trace["spans"], "dropped": trace["dropped_spans"]}
                 for job_id, trace in traced_reps[-1]["traces"]],
                handle,
            )

    metrics = {}
    for name, metric_summaries in summaries.items():
        print(f"workload {name}: {len(rounds)} reps, seed {args.seed}, trace {args.trace},"
              f" units: {WORKLOADS[name].unit}")
        for metric, s in metric_summaries.items():
            print(f"  {metric:42s} {s['median']:14.6g} {units[metric]:8s}"
                  f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
            key = metric if len(workloads) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": s["median"], "unit": units[metric]}
    print(f"fail_ratio {record['fail_ratio']:g} ({failed} of {len(problems)} jobs failed)")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
