"""The qmforms benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in fresh worker processes (worker.py) that import the
engine from src/ of this checkout.  With --trace 0 the run reports the
end-to-end metrics, measured with tracing off.  With --trace 1 it runs a
fixed amount of work twice, untraced and traced, and reports the per-layer
metrics of the traced process and the tracing overhead.  The last line of
standard output is one JSON object; the exit code is 1 if any operation
failed its check, 2 if the engine source is missing.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("registry", "verify", "linearize", "expand")
BUDGET_S = 170          # every run ends well inside 180 s
SETUPS = 2              # set-ups per run; setup_s is their median
MIN_BUILDS = 5          # cold registry builds per run, at least
REGISTRY_SETUPS = 5     # engine imports timed apart from the builds, for setup_s


class ChildFailed(Exception):
    pass


def child(workload, mode, seed, deadline, seconds=0.0, trace=0):
    """Run one worker process to completion; returns its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    spawned = time.perf_counter()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: worker exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(samples, q):
    """Nearest-rank percentile: always one of the measured samples."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    """Set-up several times, then the timed phase, tracing off."""
    runs = []
    if workload == "registry":
        # a registry set-up is only the engine import: cheap, so it is timed
        # more often than the builds alone would give
        setups = [child(workload, "setup", seed, deadline) for _ in range(REGISTRY_SETUPS)]
        # every build needs a fresh interpreter: the engine's caches would
        # make a second build in one process free
        while len(runs) < MIN_BUILDS or (sum(t for r in runs for _, t in r["ops"]) < seconds
                                         and not any(r["failed"] for r in runs)):
            runs.append(child(workload, "run", seed * 1000 + len(runs), deadline))
    else:
        setups = [child(workload, "setup", seed, deadline) for _ in range(SETUPS - 1)]
        runs.append(child(workload, "run", seed, deadline, seconds))
    setups += runs
    ops = [op for r in runs for op in r["ops"]]
    metrics = {"setup_s": metric(statistics.median(r["setup_s"] for r in setups), "s"),
               "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in runs), "MB")}
    # the raw wall-clock figures go in the record beside the normalized ones,
    # so that a change in reference seconds can be checked against plain time
    info = {"wall_setup_s": statistics.median(r["wall_setup_s"] for r in setups),
            "samples": len(ops), "setups": len(setups),
            "kernel_median_s": statistics.median(r["kernel_median_s"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]][:5]}
    if ops:
        # times are in reference seconds (probe.py); the percentiles are over
        # the operation types of the workload's fixed mix, each type counted
        # once at its median time in this run
        by_label = {}
        for label, t in ops:
            by_label.setdefault(label, []).append(t)
        typical = [statistics.median(ts) for ts in by_label.values()]
        work = sum(r["work"] for r in runs)
        metrics["ops_per_s"] = metric(work / sum(t for _, t in ops), "1/ref_s")
        metrics["op_p50_ms"] = metric(1000 * statistics.median(typical), "ref_ms")
        metrics["op_p90_ms"] = metric(1000 * percentile(typical, 90), "ref_ms")
        info["wall_ops_per_s"] = work / sum(r["timed_s"] for r in runs)
    return (sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs), metrics, info)


def per_layer(workload, seed, deadline):
    """The same fixed work untraced and traced; layer metrics from the latter."""
    plain = child(workload, "fixed", seed, deadline)
    traced = child(workload, "fixed", seed, deadline, trace=1)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = metric(traced["timed_s"] / plain["timed_s"], "ratio")
    info = {"top_self": traced["top_self"], "spans": traced["spans"],
            "span_count": traced["span_count"], "errors": (plain["errors"] + traced["errors"])[:5]}
    return (plain["attempted"] + traced["attempted"], plain["failed"] + traced["failed"],
            metrics, info)


def git_sha():
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(workload, seed, seconds, trace):
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "workload": workload,
            "seconds": seconds, "trace": trace, "src_py_lines": src_lines}


def run_one(workload, seed, seconds, trace, deadline):
    try:
        if trace:
            attempted, failed, metrics, info = per_layer(workload, seed, deadline)
        else:
            attempted, failed, metrics, info = end_to_end(workload, seed, seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, {}
    for err in info.get("errors", []):
        print(f"check failed in {workload}:\n{err}", file=sys.stderr)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return out, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qmforms" / "__init__.py").is_file():
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        deadline = time.perf_counter() + BUDGET_S
        res, info = run_one(workload, args.seed, args.seconds, trace, deadline)
        rec = record(workload, args.seed, args.seconds, trace)
        rec.update({k: v for k, v in info.items() if k != "errors"})
        rec["fail_frac"] = res["failed"] / res["attempted"]
        print(json.dumps({"record": rec}))
        for name, m in res["metrics"].items():
            print(f"{workload:9s} {name:40s} {m['value']:>16.6g} {m['unit']}")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{workload}." if len(runs) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
