"""Span tracing of ``qrev``'s public functions, installed from outside the package.

``install`` replaces each traced function under every name that binds it in a
``qrev`` module (for example ``qrev.cli.optimize_reversal`` and the ``linalg``
names imported into ``teleport``), and the ``__init__`` of ``KrausChannel``
and ``TeleportScheme``; ``uninstall`` puts the originals back. A span records
its name, start, end, parent span and request id. Spans stay in memory;
``summarize`` turns one pass of them into the per-layer metrics.

Self time is a span's duration minus the time its child spans cover; busy
time of a name or a layer counts only spans with no ancestor of the same name
or layer, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("kernels", "reversal", "qstate", "teleport", "channel", "linalg", "serialize", "cli")

# Modules whose every public function is traced; for kernels, reversal and
# cli only the calls named in EXPLICIT are, so that e.g. the optimizer's own
# helpers stay in reversal.optimize_reversal's self time.
MODULE_WIDE = ("linalg", "qstate", "channel", "teleport", "serialize")


def _after_refine(tracer, args, kwargs, res) -> None:
    tracer.counts["reversal.refine.nfev"] += int(res.nfev)
    tracer.counts["reversal.refine.nit"] += int(res.nit)


def _after_profile(tracer, args, kwargs, out) -> None:
    # Computed from shapes, ignoring cache misses: per state and Kraus operator
    # A rho A^dag is two 2x2 complex products, 16 complex multiply-adds of
    # 8 flops; the final trace is 4 more. Bytes are the minimum traffic:
    # each 64-byte state read once, one 8-byte result written, Kraus stacks read.
    kraus_e, kraus_r, states = args[:3]
    ops = kraus_e.shape[0] + kraus_r.shape[0]
    n = states.shape[0]
    tracer.counts["kernels.fidelity_profile.states"] += n
    tracer.counts["kernels.fidelity_profile.flops_computed"] += n * (128 * ops + 32)
    tracer.counts["kernels.fidelity_profile.bytes_computed"] += n * 72 + ops * 64


def _after_optimize(tracer, args, kwargs, res) -> None:
    if res.method == "multistart":
        tracer.counts["reversal.refine.useful"] += 1


def _after_file(key):
    def after(tracer, args, kwargs, out) -> None:
        tracer.counts[key] += os.path.getsize(args[0])

    return after


# (module, attribute) -> (span name, hook run on the result)
EXPLICIT = {
    ("qrev.kernels", "fidelity_profile"): ("kernels.fidelity_profile", _after_profile),
    ("qrev.kernels", "grid_scan"): ("kernels.grid_scan", None),
    ("qrev.kernels", "reversal_objective"): ("kernels.reversal_objective", None),
    ("qrev.kernels", "kraus_stack"): ("kernels.kraus_stack", None),
    ("qrev.reversal", "optimize_reversal"): ("reversal.optimize_reversal", _after_optimize),
    ("qrev.reversal", "minimize"): ("reversal.refine", _after_refine),
    ("qrev.reversal", "avg_fidelity_quadrature"): ("reversal.estimator", None),
    ("qrev.reversal", "avg_fidelity_mc"): ("reversal.estimator", None),
    ("qrev.teleport", "bell_scheme"): ("teleport.scheme", None),
    ("qrev.teleport", "imperfect_scheme"): ("teleport.scheme", None),
    ("qrev.teleport", "canned_scheme"): ("teleport.scheme", None),
    ("qrev.serialize", "save_json"): ("serialize.save", _after_file("serialize.save.bytes")),
    ("qrev.serialize", "load_json"): ("serialize.load", _after_file("serialize.load.bytes")),
    ("qrev.cli", "main"): ("cli.main", None),
}

METHODS = {
    ("qrev.channel", "KrausChannel", "__init__"): "channel.kraus_init",
    ("qrev.teleport", "TeleportScheme", "__init__"): "teleport.scheme",
}


class Tracer:
    """Spans of the calls made while installed, in flat parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.stack = [-1]
        self.request = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for spans in (self.names, self.starts, self.ends, self.parents, self.requests):
            spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, f, after):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(f)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            requests.append(tracer.request)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = f(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "qrev" or n.startswith("qrev.")}
        targets = {}
        for (modname, attr), (name, after) in EXPLICIT.items():
            targets[id(getattr(modules[modname], attr))] = (name, after)
        for layer in MODULE_WIDE:
            mod = modules[f"qrev.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and id(obj) not in targets
                ):
                    targets[id(obj)] = (f"{layer}.{obj.__name__}", None)
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                spec = targets.get(id(obj))
                if spec is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(spec[0], obj, spec[1])
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for (modname, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[modname], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _outermost(names, parents, key) -> list[bool]:
    """Per span: no ancestor shares ``key(name)``."""
    out = []
    for i, name in enumerate(names):
        k = key(name)
        p = parents[i]
        while p >= 0 and key(names[p]) != k:
            p = parents[p]
        out.append(p < 0)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-layer figures of the spans and counts recorded since ``clear``."""
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    layer_of = [n.split(".", 1)[0] for n in names]
    outer_name = _outermost(names, parents, lambda n: n)
    outer_layer = _outermost(names, parents, lambda n: n.split(".", 1)[0])

    calls: Counter = Counter(names)
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    layer_busy: Counter = Counter()
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter(layer_of)
    refined = set()
    for i, name in enumerate(names):
        own = dur[i] - child[i]
        self_ns[name] += own
        layer_self[layer_of[i]] += own
        if outer_name[i]:
            busy[name] += dur[i]
        if outer_layer[i]:
            layer_busy[layer_of[i]] += dur[i]
        if name == "reversal.refine" and parents[i] >= 0:
            refined.add(parents[i])
    return {
        "calls": calls,
        "busy_s": {k: v / 1e9 for k, v in busy.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "layer_calls": layer_calls,
        "layer_busy_s": {k: v / 1e9 for k, v in layer_busy.items()},
        "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
        "root_s": sum(d for d, p in zip(dur, parents) if p < 0) / 1e9,
        "spans": len(names),
        "refined": len(refined),
        "counts": Counter(tracer.counts),
    }


def write_spans(path: str, rows) -> None:
    """One JSON array per line: request, name, start_ns, end_ns, parent index."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write('[%d, "%s", %d, %d, %d]\n' % row)
