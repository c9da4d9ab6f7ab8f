"""Smoke test of the benchmark itself: a seconds-long run of every workload.

    python3 perfbench/smoke.py

On a fixed seed, runs each workload once untraced and twice traced, and checks
that every metric BENCHMARK.json names appears with its unit, that no request
failed, and that the exact per-layer counts repeat between the two traced
runs. Prints the problems found and exits 1 if there are any.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import EXACT_SUFFIXES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems_of(result: dict, declared: list, where: str) -> list[str]:
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        out.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        out.append(f"{where}: metrics {sorted(set(metrics) ^ set(names))} missing or undeclared")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            out.append(f"{where}: {m['name']} reads {got}, declared unit {m['unit']}")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 0)
        problems += problems_of(untraced, spec["end_to_end"], f"{workload} --trace 0")
        if untraced["metrics"].get("success_rate", {}).get("value") != 1.0:
            problems.append(f"{workload}: failure_rate is not 0")
        first, second = run(workload, 1), run(workload, 1)
        for k, result in enumerate((first, second), start=1):
            problems += problems_of(result, spec["per_layer"], f"{workload} --trace 1 (run {k})")
        for name, value in first["metrics"].items():
            again = second["metrics"].get(name)
            if name.endswith(EXACT_SUFFIXES) and value != again:
                problems.append(f"{workload}: {name} did not repeat: {value} vs {again}")
        print(f"{workload}: {untraced['attempted']} requests untraced, "
              f"{first['attempted']} and {second['attempted']} traced", flush=True)
    for p in problems:
        print(f"problem: {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
