"""Span tracer that times nncorr's layers from outside the package.

Installing a :class:`Tracer` replaces each function listed in ``LAYERS``,
in its defining module and in every ``nncorr`` module that bound it by
name (``from .x import f``), with a wrapper that records one span per call:
name, start, end, parent span and op id. Nothing under ``src/`` changes.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer call
counts and self times when the run ends.

A function that no longer exists is skipped and reported as an absent
layer, so the tracer keeps working when a later change deletes one.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from typing import NamedTuple

# Layer = an nncorr module; the functions whose calls are timed at its boundary.
LAYERS = (
    ("dataset", ("load_csv", "compute_ranks", "minmax_scale")),
    ("nn_graph", ("build_nn", "nn_brute_force")),
    ("estimator", ("chatterjee_t",)),
    ("ridge_series", ("basis_index_set", "design_matrix", "ridge_fit_all", "ghat_matrix")),
    ("bias_correction", ("estimate", "bias_estimate", "bias_estimate_streamed")),
    ("bootstrap", ("mn_bootstrap_pair", "mn_bootstrap", "_t_hat_only")),
    ("rng", ("derive_rng",)),
    ("simulation", ("run_study", "gen_gaussian_copula")),
    ("cli", ("main",)),
    ("_jsonfmt", ("dumps",)),
)

COUNTS = (
    "ridge_series.ghat_bytes",
    "bootstrap.replicates",
    "nn_graph.tree_calls",
    "nn_graph.brute_calls",
)

# build_nn takes the kd-tree path for n >= 65 and d <= 15 (nn_graph's
# _TREE_MIN_N and _TREE_MAX_DIM); read from the module when it still has them.
_TREE_MIN_N = 65
_TREE_MAX_DIM = 15


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def metric_name(layer: str, fn: str, field: str) -> str:
    # Metric names must start with a letter or digit.
    return f"{layer.lstrip('_')}.{fn}.{field}"


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [metric_name(layer, fn, field)
             for layer, fns in LAYERS for fn in fns for field in ("calls", "self_s")]
    return names + list(COUNTS)


def _count_ghat_matrix(args, result, module):
    # Dense path: the whole n x n survival matrix is materialized.
    return {"ridge_series.ghat_bytes": int(result.g.nbytes)}


def _count_streamed(args, result, module):
    # Streamed path: one n x block slab per threshold block, n x n in total.
    n = int(args["model"].p.shape[0])
    return {"ridge_series.ghat_bytes": n * n * 8}


def _count_replicates(args, result, module):
    return {"bootstrap.replicates": int(args["b_reps"])}


def _count_nn_path(args, result, module):
    n, d = args["x"].shape
    min_n = getattr(module, "_TREE_MIN_N", _TREE_MIN_N)
    max_d = getattr(module, "_TREE_MAX_DIM", _TREE_MAX_DIM)
    tree = n >= min_n and d <= max_d
    return {"nn_graph.tree_calls" if tree else "nn_graph.brute_calls": 1}


_COUNTERS = {
    "ridge_series.ghat_matrix": _count_ghat_matrix,
    "bias_correction.bias_estimate_streamed": _count_streamed,
    "bootstrap.mn_bootstrap_pair": _count_replicates,
    "bootstrap.mn_bootstrap": _count_replicates,
    "nn_graph.build_nn": _count_nn_path,
}


class Tracer:
    """Records spans for calls made while ``op`` is set; idle otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.absent: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, module=None):
        """Return ``fn`` wrapped so each call during an op records a span."""
        counter = _COUNTERS.get(name)
        if counter is not None:
            params = inspect.signature(fn).parameters
            names = list(params)
            defaults = {key: p.default for key, p in params.items()}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, op))
            if counter is not None:
                # Cheaper than Signature.bind, which would double the cost of a span.
                arguments = {**defaults, **dict(zip(names, args)), **kwargs}
                try:
                    counted = counter(arguments, result, module)
                except (KeyError, AttributeError, ValueError):
                    # A later change renamed the argument or reshaped the
                    # result the count reads: report it, keep the op going.
                    counted = {}
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
                for key, value in counted.items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, package: str = "nncorr") -> None:
        """Wrap every listed function that exists in the loaded package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, fns in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                orig = getattr(module, fn_name, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                traced = self.wrap(name, orig, module)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    # Length of the union of the intervals, clipped to [lo, hi].
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
            for s in spans}


def layer_metrics(spans: list[Span], counts: dict[str, int], ops: int) -> dict[str, float]:
    """Per-op call counts, self seconds and computed counts for every layer."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.sid]
    ops = max(ops, 1)
    out: dict[str, float] = {}
    for layer, fns in LAYERS:
        for fn in fns:
            name = f"{layer}.{fn}"
            out[metric_name(layer, fn, "calls")] = calls.get(name, 0) / ops
            out[metric_name(layer, fn, "self_s")] = self_s.get(name, 0.0) / ops
    for key in COUNTS:
        out[key] = counts.get(key, 0) / ops
    return out
