"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The exact counters of a traced run repeat exactly on one seed.
2. A corrupted golden value turns into failed operations, counted and
   reported, and the run goes on.
3. Without the engine source the benchmark exits non-zero and prints no
   result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import golden
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def traced_counters(workload):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", "fixed",
           "--seed", str(SEED), "--trace", "1"]
    out = json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                    check=True, timeout=300).stdout.splitlines()[-1])
    assert out["failed"] == 0, out["errors"]
    return {name: out["layers"][name]["value"] for name in spans.EXACT}


def test_counters_repeat():
    for workload in ("registry", "verify", "linearize", "expand"):
        first, second = traced_counters(workload), traced_counters(workload)
        assert first == second, (workload, {k: (first[k], second[k]) for k in first
                                            if first[k] != second[k]})
        print(f"ok: {workload} counters repeat exactly "
              f"({sum(1 for v in first.values() if v)} of {len(first)} non-zero)")


class _Args:
    mode = "fixed"
    seconds = 0


def _one_pass(eng, name):
    wl = worker.Workload(eng, name, SEED)
    wl.build_registry()
    phase = worker.Phase(name)
    worker.timed_phase(_Args(), wl, phase, None)
    return phase


def test_corrupted_golden_fails():
    eng = worker.import_engine()
    saved = golden.H_TUPLES[2]
    golden.H_TUPLES[2] = (saved[0] + 1,) + saved[1:]
    try:
        phase = _one_pass(eng, "linearize")
    finally:
        golden.H_TUPLES[2] = saved
    assert (phase.failed, phase.attempted) == (1, 29), (phase.failed, phase.attempted)
    assert "H_2" in phase.errors[0]

    saved = dict(golden.PREC_LOSS)
    golden.PREC_LOSS.clear()
    try:
        phase = _one_pass(eng, "expand")
    finally:
        golden.PREC_LOSS.update(saved)
    n = len(golden.PREC_LADDER)
    assert (phase.failed, phase.attempted) == (n, 11 * n), (phase.failed, phase.attempted)
    print("ok: corrupted goldens give fail_frac 1/29 on linearize and 1/11 on expand")


def test_no_engine_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: without src/ the benchmark exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    test_no_engine_source()
    test_corrupted_golden_fails()
    test_counters_repeat()
