"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py --base base/*.txt --new new/*.txt

Each file holds the standard output of one ``run.py`` run; its summary line
carries the workload, the environment record and the metrics. For every metric
the script prints each side's median and quartile spread. For end-to-end
metrics it also prints a verdict against the bound in BENCHMARK.json:
"worse" when the new median is worse than the base median by more than the
bound, "unresolved" when the base's own spread (quartile distance over
median) is wider than the bound, "ok" otherwise. Runs whose kernel backend
differs are not compared: the script exits 2. It exits 1 when a metric is
worse, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            summaries = [json.loads(line) for line in fh if line.startswith('{"kind": "summary"')]
        if not summaries:
            sys.exit(f"error: {path} holds no summary line")
        runs.append(summaries[-1])
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    base, new = load(args.base), load(args.new)
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"error: runs use different kernel backends {sorted(backends)}; not comparable",
              file=sys.stderr)
        return 2

    worse = False
    keys = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"== {workload} (trace {trace}): {len(b_runs)} base runs, {len(n_runs)} new runs")
        for name in b_runs[0]["metrics"]:
            b_med, b_spread = spread([r["metrics"][name]["value"] for r in b_runs])
            n_med, n_spread = spread([r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]])
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
                verdict = "unresolved" if b_spread > bound else ("worse" if change > bound else "ok")
                worse |= verdict == "worse"
            unit = b_runs[0]["metrics"][name]["unit"]
            print(f"  {name:44s} base {b_med:14.6g} ({b_spread:6.1%})  new {n_med:14.6g} "
                  f"({n_spread:6.1%}) {unit:6s} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
