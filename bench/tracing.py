"""Per-layer tracing by wrapping the package's public functions from outside.

Each layer is a module of ``qwalk1d``.  :func:`install` replaces every public
function of a layer (except the inner-loop helpers in ``_UNTRACED``), in
every ``qwalk1d`` namespace that holds it, by a wrapper that times the call
while :attr:`Tracer.on` is set.  No file under ``src/`` changes.

A call's self time is its duration minus the time of the traced calls it
made, so self times add up to the time spent inside top-level traced calls.
Counts that measure work (cell steps, words enumerated, CDF points) are
computed from the arguments of the calls that enter a layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("coin", "paths", "engine", "analytic", "symmetry", "special", "limit", "cli")

#: Helpers called inside other functions' inner loops: wrapping them would
#: only add overhead, and their time counts toward the caller.  The coin letter
#: algebra runs inside ``engine`` and ``paths``.
_UNTRACED = {
    "coin": {"letter_matrix", "letter_product", "basis_decompose"},
    "analytic": {"kappa_factor", "nu_factor"},
}

#: Bytes of amplitude data one engine step reads and writes per stored pair
#: (two complex128 components).
_PAIR_BYTES = 32


class Tracer:
    """Self time per layer, inclusive time and calls per function, work counts."""

    def __init__(self) -> None:
        self.on = False
        self._stack: list[list[float]] = []  # child time of each open call
        self._layer_depth: Counter = Counter()
        self._fn_depth: Counter = Counter()
        self._evolved: set = set()
        self.self_s: defaultdict = defaultdict(float)
        self.fn_s: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self.drift_max = 0.0

    def start_job(self) -> None:
        """Redundancy is judged within one job."""
        self._evolved.clear()

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        hook = _HOOKS.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            entering = self._layer_depth[layer] == 0
            outermost = self._fn_depth[key] == 0
            frame = [0.0]
            self._stack.append(frame)
            self._layer_depth[layer] += 1
            self._fn_depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._fn_depth[key] -= 1
                self._layer_depth[layer] -= 1
                self._stack.pop()
                self.self_s[layer] += duration - frame[0]
                self._charge(duration)
                self.fn_calls[key] += 1
                if outermost:
                    self.fn_s[key] += duration
                if entering:
                    self.layer_calls[layer] += 1
            if hook is not None and entering:
                t1 = time.perf_counter()
                hook(self, signature.bind(*args, **kwargs).arguments, result)
                spent = time.perf_counter() - t1
                self.self_s["trace"] += spent
                self._charge(spent)
            return result

        return traced

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][0] += seconds
        else:
            self.top_s += seconds

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "fn_s": dict(self.fn_s),
            "fn_calls": dict(self.fn_calls),
            "layer_calls": dict(self.layer_calls),
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "drift_max": self.drift_max,
        }


def _engine_evolve(tracer: Tracer, args: dict, result) -> None:
    n = args["n"]
    steps = n * (n + 3) // 2  # step t writes the t+2 pairs of time t+1
    tracer.counts["engine.cell_steps"] += steps
    tracer.counts["engine.bytes_computed"] += _PAIR_BYTES * (n * n + 2 * n)
    key = (args["coin"], args["qubit"], n)
    if key in tracer._evolved:
        tracer.counts["engine.redundant_cell_steps"] += steps
    tracer._evolved.add(key)
    total = result.total() if hasattr(result, "total") else result.total_probability()
    tracer.drift_max = max(tracer.drift_max, abs(total - 1.0))


def _engine_step(tracer: Tracer, args: dict, result) -> None:
    n = args["field"].n
    tracer.counts["engine.cell_steps"] += n + 2
    tracer.counts["engine.bytes_computed"] += _PAIR_BYTES * (2 * n + 3)


def _paths_exhaustive(tracer: Tracer, args: dict, result) -> None:
    sc = args["sc"]
    tracer.counts["paths.words_enumerated"] += math.comb(sc.l + sc.m, sc.l)


def _limit_cdf(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["limit.cdf_points"] += 1


def _limit_ks(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["limit.cdf_points"] += args["dist"].n + 1


_HOOKS = {
    "engine.evolve": _engine_evolve,
    "engine.distribution": _engine_evolve,
    "engine.step": _engine_step,
    "paths.path_sum_exhaustive": _paths_exhaustive,
    "limit.limit_cdf": _limit_cdf,
    "limit.ks_distance": _limit_ks,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer wherever ``qwalk1d`` binds it."""
    import qwalk1d.cli  # noqa: F401  (loads every layer)

    modules = [m for name, m in sys.modules.items() if name == "qwalk1d" or name.startswith("qwalk1d.")]
    for layer in LAYERS:
        module = sys.modules[f"qwalk1d.{layer}"]
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            fn = getattr(module, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if name in _UNTRACED.get(layer, ()):
                continue
            traced = tracer.wrap(layer, name, fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, traced)
