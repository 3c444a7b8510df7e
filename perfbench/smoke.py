"""Smoke test of the benchmark itself.

Runs every workload briefly (one input cycle) in both modes, including
any that BENCHMARK.json does not declare, and checks that each run exits
0, reports correct outputs with no failed ops, and prints exactly the
metric names and units that BENCHMARK.json declares.
Then checks that run.py, started in a directory holding only
BENCHMARK.json and perfbench/, exits non-zero without a result line.
Run from a checkout root; exits 1 on the first mismatch:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(run.PIN_SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        print("smoke: run.py metric tables differ from BENCHMARK.json")
        return 1
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if not set(declared_workloads) <= set(workloads.WORKLOADS):
        print(f"smoke: BENCHMARK.json declares unknown workloads {declared_workloads}")
        return 1
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"smoke: {tag} exited {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"smoke: {tag} result keys {sorted(result)}")
                return 1
            if printed != declared[trace]:
                print(f"smoke: {tag} metrics {printed} != declared {declared[trace]}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"smoke: {tag} not correct: {result}\n{proc.stderr[-2000:]}")
                return 1
            print(f"smoke: {tag} ok ({result['attempted']} ops)")
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "grid", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        print(f"smoke: bare directory run exited {proc.returncode}: {proc.stdout[-500:]}")
        return 1
    print("smoke: bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
