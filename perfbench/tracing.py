"""Spans around the public functions of the mgms modules, installed from outside.

`install` wraps every public function defined in a layer module (and the two
`EntropyPolynomial` evaluators, and the scipy.stats calls of `experiments`)
and rebinds the wrapper at every import site inside the package: a name that
`experiments` imported from `measures` is rebound in both. Spans are kept in
memory; only calls made while an op is open are recorded, so the benchmark's
own output checks leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

# span fields
NAME, LAYER, START, END, PARENT, OP, NAME_OUTER, LAYER_OUTER, COUNTS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._name_depth: dict[str, int] = defaultdict(int)
        self._layer_depth: dict[str, int] = defaultdict(int)
        self.op = None

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self._open(f"op.{kind}", "op")[START] = time.perf_counter_ns()

    def end_op(self) -> None:
        self._close(time.perf_counter_ns())
        self.op = None

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0, 0, self._stack[-1] if self._stack else None, self.op,
                self._name_depth[name] == 0, self._layer_depth[layer] == 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._name_depth[name] += 1
        self._layer_depth[layer] += 1
        return span

    def _close(self, end: int) -> list:
        span = self.spans[self._stack.pop()]
        span[END] = end
        self._name_depth[span[NAME]] -= 1
        self._layer_depth[span[LAYER]] -= 1
        return span

    def call(self, name, layer, fn, count, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        span = self._open(name, layer)
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(time.perf_counter_ns())
        if count is not None:
            span[COUNTS] = count(args, kwargs, result)
        return result


def _rows_times_width(args, kwargs, result):
    bits = args[1] if len(args) > 1 else kwargs["bits"]
    return {"measures.symbols_evaluated": bits.shape[0] * (bits.shape[1] - 1)}


# Counters read off the arguments and results at the layer boundary.
COUNTERS = {
    "rng.uniform_grid": lambda a, k, r: {"rng.draws": r.size},
    "measures.sample_bits_batch": lambda a, k, r: {
        "measures.symbols_sampled": r.shape[0] * (r.shape[1] - 1),
        "measures.sample_bits_batch.out_bytes": r.nbytes,
    },
    "measures.logprob_prefix_grid": _rows_times_width,
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, count, args, kwargs)

    if hasattr(fn, "cache_clear"):
        wrapper.cache_clear = fn.cache_clear
    return wrapper


class _StatsProxy:
    """scipy.stats as `experiments` sees it, with its three calls traced."""

    def __init__(self, tracer: Tracer, stats):
        self._stats = stats
        name = "experiments.scipy_stats"
        self.theilslopes = _wrap(tracer, stats.theilslopes, name, "experiments")
        self.linregress = _wrap(tracer, stats.linregress, name, "experiments")
        self.t = types.SimpleNamespace(ppf=_wrap(tracer, stats.t.ppf, name, "experiments"))

    def __getattr__(self, attr):
        return getattr(self._stats, attr)


def install(tracer: Tracer, layers) -> callable:
    """Wrap the public functions of mgms.<layer> for each layer; return the undo."""
    package = [m for n, m in sys.modules.items() if n == "mgms" or n.startswith("mgms.")]
    wrappers = {}
    for layer in layers:
        mod = sys.modules[f"mgms.{layer}"]
        for attr, obj in vars(mod).items():
            target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
            if (attr.startswith("_") or not isinstance(target, types.FunctionType)
                    or target.__module__ != mod.__name__ or inspect.isgeneratorfunction(target)):
                continue
            wrappers[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}", layer))

    patches = []
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, hit[1])

    poly = sys.modules["mgms.polynomials"].EntropyPolynomial
    for attr in ("evaluate", "evaluate_derivative"):
        orig = poly.__dict__[attr]
        patches.append((poly, attr, orig))
        setattr(poly, attr, _wrap(tracer, orig, "polynomials.evaluate", "polynomials"))

    experiments = sys.modules["mgms.experiments"]
    patches.append((experiments, "stats", experiments.stats))
    experiments.stats = _StatsProxy(tracer, experiments.stats)

    def uninstall():
        for owner, attr, obj in reversed(patches):
            setattr(owner, attr, obj)

    return uninstall


def per_op_metrics(tracer: Tracer, op_kinds: dict) -> dict:
    """Fold the spans into one metrics dict per op id.

    Self time is a span's duration minus its children's; time inside an op
    that no layer span covers is `trace.unattributed_s`. `busy_s` counts a
    span only when no span of the same name (or, for a layer total, the same
    layer) is open around it, so recursion is not counted twice.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        acc = out[s[OP]]
        dur = (s[END] - s[START]) / 1e9
        self_s = dur - child_ns[i] / 1e9
        name, layer = s[NAME], s[LAYER]
        if layer == "op":
            acc["trace.wall_s"] += dur
            acc["trace.unattributed_s"] += self_s
            continue
        acc[f"{name}.calls"] += 1
        acc[f"{name}.self_s"] += self_s
        acc[f"{layer}.calls"] += 1
        acc[f"{layer}.self_s"] += self_s
        if s[NAME_OUTER]:
            acc[f"{name}.busy_s"] += dur
            if name == "analytics.derivative_series_at_p":
                acc[f"{name}.{op_kinds[s[OP]]}_s"] += dur
        if s[LAYER_OUTER]:
            acc[f"{layer}.busy_s"] += dur
        for key, value in (s[COUNTS] or {}).items():
            acc[key] += value
    return out
