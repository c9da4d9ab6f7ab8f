"""Request-level benchmark of the ``qrev`` package.

Usage, from the repository root:

    python3 perfbench/run.py --workload reverse --seed 1 --seconds 25 --trace 0

One client in one process sends requests in a closed loop (the next request
starts when the previous one returns, with no think time), single-threaded,
with BLAS pinned to one thread. Inputs come from ``--seed`` alone; ``qrev``
sees only the generated inputs. Input generation and the correctness checks
of each request run between requests, outside the timed interval; the run
stops once ``--seconds`` of request time has been measured. Nothing queues,
so no layer has a wait time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

  setup_s          median wall time of fresh processes that import qrev and
                   complete the first request of every workload
  throughput_rps   requests completed per second of request time
  latency_p50_ms, latency_p90_ms
                   per-request wall time; the sample count is printed
  success_rate     1 - failure_rate, where failure_rate is requests that
                   raised or failed a check over requests attempted
  mean_fidelity    mean figure of merit over a fixed request set that does not
                   depend on --seed, so it repeats exactly (reverse: reported
                   optimum; estimate: Monte Carlo mean; build: average fidelity
                   of the outcome-averaged channel)
  peak_rss_mb      peak resident memory of this process (getrusage)

``--trace 1`` alternates untraced and traced passes over a fixed set of the
seed's first requests and prints the per-layer metrics: counts, busy and self
times per pass (means over traced passes), tracing overhead, span coverage of
request time, and import times from ``python -X importtime``. Counts must
repeat exactly in every traced pass; the spans of the first traced pass are
written to ``.bench_out/``.

The lines before the last are for people: metrics by name and unit, then a
summary object holding the environment record and ending with ``"claim":
null``. The last line is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYERS, Tracer, summarize, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_SAMPLES = 100          # so that p90 has at least ten samples beyond it
CALIBRATION_SEED = 20021007
CALIBRATION_REQUESTS = 6
# Traced pass sizes: whole cycles of the request mix (estimate also cycles 4
# state counts), reverse long enough to include large-mu imperfect requests.
PASS_REQUESTS = {"reverse": 15, "estimate": 12, "build": 10}
COLD_STARTS = 3
CHILD_TIMEOUT_S = 120
# Cumulative import times reported; numpy and scipy.optimize are pulled in by qrev.
IMPORT_MODULES = (
    "qrev", "qrev.linalg", "qrev.qstate", "qrev.channel", "qrev.teleport", "qrev.kernels",
    "qrev.reversal", "qrev.serialize", "qrev.cli", "numpy", "scipy.optimize",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_qrev():
    if not os.path.isfile(os.path.join(SRC, "qrev", "__init__.py")):
        sys.exit(f"error: no qrev sources under {SRC}")
    sys.path.insert(0, SRC)
    import qrev

    if os.path.dirname(os.path.dirname(os.path.abspath(qrev.__file__))) != SRC:
        sys.exit(f"error: imported qrev from {qrev.__file__}, not from {SRC}")
    return qrev


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(qrev) -> dict:
    import numpy
    import scipy

    return {
        "backend": qrev.kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


class Requests:
    """Runs one workload's requests and keeps the tally of failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, seed: int, i: int, before=None, after=None):
        """Prepare, run (timed) and check request ``i``.

        Returns (seconds, output), output None when the request failed.
        """
        self.attempted += 1
        elapsed = 0.0
        try:
            inputs = self.workload.prepare(seed, i)
            if before is not None:
                before(i)
            t0 = time.perf_counter_ns()
            try:
                out = self.workload.run(inputs)
            finally:
                elapsed = (time.perf_counter_ns() - t0) / 1e9
                if after is not None:
                    after()
            errors = self.workload.check(inputs, out)
        except Exception as e:  # a failed request is counted, the loop goes on
            errors = [f"{type(e).__name__}: {e}"]
            out = None
        if errors:
            self.failed += 1
            self.errors.extend(f"request {i} (seed {seed}): {msg}" for msg in errors)
            return elapsed, None
        return elapsed, out


def cold_start_seconds(seed: int) -> list[float]:
    """Wall times of fresh processes doing the first request of every workload."""
    times = []
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), str(seed)]
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return times


def import_times() -> dict:
    """Cumulative import time per module from ``python -X importtime``."""
    code = "import qrev, qrev.serialize, qrev.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    found = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, module = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                found[module.strip()] = int(cumulative) / 1e6
    return {f"import.{m}_s": found.get(m, 0.0) for m in IMPORT_MODULES}


def calibration_fidelity(requests: Requests) -> float:
    values = []
    for i in range(CALIBRATION_REQUESTS):
        _, out = requests.one(CALIBRATION_SEED, i)
        if out is not None:
            values.append(requests.workload.fidelity(out))
    return statistics.fmean(values) if values else float("nan")


def timed_run(requests: Requests, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = cold_start_seconds(seed)
    mean_fidelity = calibration_fidelity(requests)
    latencies = []
    busy = 0.0
    deadline = time.perf_counter() + 2 * seconds + 30  # ends a run whose requests all fail early
    i = 0
    while busy < seconds and time.perf_counter() < deadline:
        elapsed, out = requests.one(seed, i)
        i += 1
        busy += elapsed
        if out is not None:  # failed requests are left out of the latency sample
            latencies.append(elapsed)
    if len(latencies) < MIN_SAMPLES:
        print(f"warning: {len(latencies)} samples, fewer than {MIN_SAMPLES}", file=sys.stderr)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else [0.0] * 9
    failure_rate = requests.failed / requests.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (len(latencies) / busy if busy else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "success_rate": (1.0 - failure_rate, "1"),
        "mean_fidelity": (mean_fidelity, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"samples": len(latencies), "failure_rate": failure_rate, "setup_runs_s": setup}
    return metrics, extra


# Per-layer metrics that must repeat exactly for one seed and request set.
EXACT_SUFFIXES = (".calls", ".nfev", ".nit", ".states", "_computed", ".bytes",
                  "trace.spans", "trace.requests")


def traced_run(requests: Requests, seed: int, seconds: float, workload: str) -> tuple[dict, dict]:
    tracer = Tracer()
    n = PASS_REQUESTS[workload]
    wall = {False: 0.0, True: 0.0}
    passes = {False: 0, True: 0}
    sums: dict = {}
    first_counts = None
    mismatches = []
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    first_spans = None

    def before(i):
        tracer.request = i
        tracer.install()

    while passes[True] == 0 or wall[False] + wall[True] < seconds:
        traced = passes[False] > passes[True]
        tracer.clear()
        pass_wall = 0.0
        for i in range(n):
            elapsed, _ = requests.one(seed, i, before if traced else None,
                                      tracer.uninstall if traced else None)
            pass_wall += elapsed
        wall[traced] += pass_wall
        passes[traced] += 1
        if not traced:
            continue
        s = summarize(tracer)
        counts = _pass_metrics(s, pass_wall, n)
        exact = {k: v for k, v in counts.items() if k.endswith(EXACT_SUFFIXES)}
        if first_counts is None:
            first_counts = exact
            first_spans = list(zip(tracer.requests, tracer.names, tracer.starts,
                                   tracer.ends, tracer.parents))
        elif exact != first_counts:
            diff = sorted(k for k in exact if exact[k] != first_counts.get(k))
            mismatches.append(f"pass {passes[True]}: counts changed: {diff}")
        for k, v in counts.items():
            sums[k] = sums.get(k, 0.0) + v

    metrics = {k: v / passes[True] for k, v in sums.items()}
    metrics.update(first_counts)
    traced_rps = n * passes[True] / wall[True]
    untraced_rps = n * passes[False] / wall[False]
    metrics["trace.throughput_rps"] = traced_rps
    metrics["trace.untraced_throughput_rps"] = untraced_rps
    metrics["trace.overhead_ratio"] = untraced_rps / traced_rps - 1.0
    metrics.update(import_times())

    write_spans(spans_path, first_spans)
    extra = {"passes_traced": passes[True], "passes_untraced": passes[False],
             "count_mismatches": mismatches, "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, extra


def _pass_metrics(s: dict, pass_wall: float, n: int) -> dict:
    """The per-layer figures of one traced pass, by BENCHMARK.json name."""
    calls, busy, self_s, counts = s["calls"], s["busy_s"], s["self_s"], s["counts"]
    m = {}
    for name in ("kernels.reversal_objective", "kernels.grid_scan", "kernels.fidelity_profile",
                 "reversal.refine", "teleport.induced_channel", "teleport.t_operators",
                 "channel.kraus_init", "serialize.save", "serialize.load", "cli.main"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("kernels.reversal_objective", "kernels.grid_scan", "kernels.fidelity_profile",
                 "qstate.isotropic_samples", "qstate.states_from_angles",
                 "teleport.induced_channel", "teleport.t_operators", "teleport.scheme",
                 "channel.kraus_init", "channel.choi_of", "channel.kraus_from_choi",
                 "channel.bloch_affine_of", "serialize.save", "serialize.load"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in ("reversal.optimize_reversal", "reversal.refine", "reversal.estimator", "cli.main"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in ("kernels.fidelity_profile.states", "kernels.fidelity_profile.flops_computed",
                "kernels.fidelity_profile.bytes_computed", "reversal.refine.nfev",
                "reversal.refine.nit", "serialize.save.bytes", "serialize.load.bytes"):
        m[key] = counts.get(key, 0)
    objective_calls = m["kernels.reversal_objective.calls"]
    m["kernels.reversal_objective.ns_per_call"] = (
        m["kernels.reversal_objective.busy_s"] * 1e9 / objective_calls if objective_calls else 0.0)
    states = m["kernels.fidelity_profile.states"]
    m["kernels.fidelity_profile.ns_per_state"] = (
        m["kernels.fidelity_profile.busy_s"] * 1e9 / states if states else 0.0)
    m["reversal.refine.useful_ratio"] = (
        counts.get("reversal.refine.useful", 0) / s["refined"] if s["refined"] else 0.0)
    m["linalg.calls"] = s["layer_calls"].get("linalg", 0)
    m["linalg.busy_s"] = s["layer_busy_s"].get("linalg", 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = s["layer_self_s"].get(layer, 0.0)
    m["trace.requests"] = n
    m["trace.spans"] = s["spans"]
    m["trace.self_coverage"] = s["root_s"] / pass_wall if pass_wall else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    qrev = _import_qrev()
    sys.path.insert(0, HERE)
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        requests = Requests(workloads.make(args.workload, workdir))
        if args.trace:
            values, extra = traced_run(requests, args.seed, args.seconds, args.workload)
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
        else:
            metrics, extra = timed_run(requests, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    for err in requests.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = requests.failed == 0 and not extra.get("count_mismatches")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>18.9g} {unit}")
    if not args.trace:
        print(f"{'samples':44s} {extra['samples']:>18d} requests")
        print(f"{'failure_rate':44s} {extra['failure_rate']:>18.9g} 1")
    summary = {
        "kind": "summary",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(qrev),
        "correct": correct,
        "attempted": requests.attempted,
        "failed": requests.failed,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "claim": None,
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": requests.attempted,
        "failed": requests.failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
