"""Per-layer tracing of excursim from outside the package.

The tracer swaps module attributes for timing wrappers at the points where
one layer calls the next.  The callers look these names up in their module
globals at call time, so the package source stays untouched and every
original is put back when the ``installed`` block exits.  Spans (name, start,
end, parent) go into flat arrays in memory and are written once at the end.

Wrappers never touch an RNG, so traced and untraced runs consume the same
random streams and return bit-identical estimates.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from array import array

import numpy as np

# (module, attribute, span name): the public callees of each layer, wrapped
# in the module that calls them.  ``excursim.field._conditional_draw`` stays
# unwrapped; its two callees below are the field layer.
PATCH_POINTS = (
    ("excursim.cli", "config_density", "design.density"),
    ("excursim.cli", "estimate_tail", "engine"),
    ("excursim.cli", "estimate_tail_and_excursion", "engine"),
    ("excursim.cli", "cosine_truth", "oracles.truth"),
    ("excursim.cli", "expected_excursion_measure", "oracles.truth"),
    ("excursim.engine", "measure_context", "measure.context"),
    ("excursim.engine", "sample_tau", "measure.tau"),
    ("excursim.engine", "sample_truncated_tail", "measure.tail"),
    ("excursim.engine", "sample_design_points", "design.sample"),
    ("excursim.engine", "mes_hat", "design.estimator"),
    ("excursim.engine", "alpha_hat", "design.estimator"),
    ("excursim.field", "conditional_moments", "field.moments"),
    ("excursim.field", "factor_psd", "field.factor"),
)
# Counted, not timed: candidates the rejection tau sampler evaluates.
COUNT_POINT = ("excursim.measure", "log_marginal_tail")

CLI_SPAN = "cli"
OBSERVE_SPAN = "trace"  # the tracer's own bookkeeping, kept out of self times
CALLEE_LAYERS = ("measure.", "design.", "field.", "oracles.")

# factor_psd's documented ridge ladder: 0, then 1e-12 * trace/n doubling
# twenty times, then 1e-6 * trace/n.  Rung k costs k + 1 Cholesky attempts.
_LADDER_BASE = 1e-12

# Per-layer metrics: unit, better, the end-to-end metric each should move,
# and the workloads on which it should move.
PER_LAYER = {
    "engine.self_us_per_rep": ("us", "lower", ("replicates_per_s",), ("paper-tables",)),
    "engine.hit_frac": ("frac", "higher", ("time_to_1pct_s",),
                        ("paper-tables", "large-m-smooth", "large-m-rough")),
    "engine.weight_ess_frac": ("frac", "higher", ("time_to_1pct_s",),
                               ("paper-tables", "large-m-smooth", "large-m-rough")),
    "measure.context_ms": ("ms", "lower", ("setup_s", "replicates_per_s"), ("paper-tables",)),
    "measure.context_calls": ("count", "lower", ("setup_s", "replicates_per_s"),
                              ("paper-tables",)),
    "measure.quad_points": ("count", "lower", ("setup_s", "replicates_per_s"),
                            ("paper-tables",)),
    "measure.tau_us": ("us", "lower", ("replicates_per_s",), ("paper-tables",)),
    "measure.tau_accept_ratio": ("frac", "higher", ("replicates_per_s",), ("paper-tables",)),
    "measure.tail_us": ("us", "lower", ("replicates_per_s",), ("paper-tables",)),
    "design.density_ms": ("ms", "lower", ("setup_s",),
                          ("paper-tables", "large-m-smooth", "large-m-rough")),
    "design.sample_us": ("us", "lower", ("replicates_per_s",), ("paper-tables",)),
    "design.inside_frac": ("frac", "higher", ("replicates_per_s",), ("paper-tables",)),
    "design.estimator_us": ("us", "lower", ("replicates_per_s",), ("paper-tables",)),
    "field.moments_us": ("us", "lower", ("replicates_per_s",),
                         ("paper-tables", "large-m-smooth", "large-m-rough")),
    "field.factor_us": ("us", "lower", ("replicates_per_s", "time_to_1pct_s"),
                        ("large-m-smooth", "large-m-rough")),
    "field.factor_attempts_per_call": ("count", "lower", ("field.factor_us",),
                                       ("large-m-smooth",)),
    "field.factor_gflop_computed": ("GFLOP", "lower", ("field.factor_us",),
                                    ("large-m-smooth",)),
    "oracles.truth_ms": ("ms", "lower", ("replicates_per_s",), ("paper-tables",)),
    "cli.self_ms": ("ms", "lower", ("replicates_per_s",), ("paper-tables",)),
    "trace.overhead_frac": ("frac", "lower", (),
                            ("paper-tables", "large-m-smooth", "large-m-rough")),
    "trace.coverage_frac": ("frac", "higher", (),
                            ("paper-tables", "large-m-smooth", "large-m-rough")),
}


class Tracer:
    """Span recorder plus the counters observed at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._trace_id = self._name_id(OBSERVE_SPAN)
        self._tau_id = self._name_id("measure.tau")
        self.ctx = None
        self.counts = dict(context_calls=0, quad_points=0, tau_draws=0, tau_candidates=0,
                           design_points=0, design_inside=0, replicates=0, hits=0,
                           factor_calls=0, factor_attempts=0, factor_flop=0.0)
        self._pending_candidates = 0
        self._weights = [0.0, 0.0, 0]  # sum w, sum w^2, count for the current engine call
        self.ess_fracs: list[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def _wrap(self, fn, name: str, observe):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                j = self._begin(self._trace_id)
                try:
                    observe(out, args)
                finally:
                    self._finish(j)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_candidates(self, fn):
        def wrapper(model, points, level):
            top = self._stack[-1]
            if top >= 0 and self.kind[top] == self._tau_id:
                self._pending_candidates += int(np.shape(points)[0])
            return fn(model, points, level)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: run inside a "trace" span after the wrapped call returns --

    def _on_context(self, ctx, args):
        self.ctx = ctx
        self.counts["context_calls"] += 1
        self.counts["quad_points"] += ctx.quadrature.points_per_axis ** args[0].dimension

    def _on_tau(self, tau, args):
        draws = 1 if np.ndim(tau) == 1 else int(np.shape(tau)[0])
        self.counts["tau_draws"] += draws
        # samplers that never reject evaluate no candidates: every draw is one
        self.counts["tau_candidates"] += self._pending_candidates or draws
        self._pending_candidates = 0

    def _on_design(self, draw, args):
        self.counts["design_points"] += draw.m
        self.counts["design_inside"] += int(np.count_nonzero(draw.inside))

    def _on_mes(self, mes, args):
        values, _, draw = args[:3]
        hit = bool(np.any((np.asarray(values) > self.ctx.b) & draw.inside))
        self.counts["replicates"] += 1
        w = 1.0 / mes if hit else 0.0
        self.counts["hits"] += hit
        acc = self._weights
        acc[0] += w
        acc[1] += w * w
        acc[2] += 1

    def _on_engine(self, out, args):
        total, total_sq, n = self._weights
        if n and total_sq > 0.0:
            self.ess_fracs.append(total * total / (n * total_sq))
        self._weights = [0.0, 0.0, 0]

    def _on_factor(self, out, args):
        matrix = np.asarray(args[0])
        _, ridge = out
        n = matrix.shape[0]
        attempts = 1
        if ridge > 0.0:
            rel = ridge / (float(np.trace(matrix)) / n)
            attempts = int(round(math.log2(rel / _LADDER_BASE))) + 2
        self.counts["factor_calls"] += 1
        self.counts["factor_attempts"] += attempts
        self.counts["factor_flop"] += attempts * n ** 3 / 3.0

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch point; restore every original on exit."""
        observers = {"measure_context": self._on_context, "sample_tau": self._on_tau,
                     "sample_design_points": self._on_design, "mes_hat": self._on_mes,
                     "estimate_tail": self._on_engine,
                     "estimate_tail_and_excursion": self._on_engine,
                     "factor_psd": self._on_factor}
        saved = []
        try:
            for module_name, attr, span in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span, observers.get(attr)))
            module = importlib.import_module(COUNT_POINT[0])
            original = getattr(module, COUNT_POINT[1])
            saved.append((module, COUNT_POINT[1], original))
            setattr(module, COUNT_POINT[1], self._count_candidates(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "kind": np.frombuffer(self.kind, np.int16),
                "start_ns": np.frombuffer(self.start, np.int64),
                "end_ns": np.frombuffer(self.end, np.int64),
                "parent": np.frombuffer(self.parent, np.int32)}

    def write(self, path: str):
        np.savez(path, **self.arrays())

    def layer_metrics(self, attempted: int, untraced_wall_s: float) -> dict:
        """Per-layer figures from the spans and counters, keyed as PER_LAYER."""
        a = self.arrays()
        kind, parent = a["kind"].astype(np.intp), a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        width = len(self.names)
        total = np.bincount(kind, weights=dur, minlength=width)
        own = np.bincount(kind, weights=dur - child, minlength=width)
        calls = np.bincount(kind, minlength=width)

        def tot(name, table=total):
            return float(table[self._ids[name]]) if name in self._ids else 0.0

        def num(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        def per(value, count, scale):
            return value / count / scale if count else 0.0

        c = self.counts
        traced_wall = tot(CLI_SPAN)
        callee = sum(float(total[i]) for i, name in enumerate(self.names)
                     if name.startswith(CALLEE_LAYERS))
        values = {
            "engine.self_us_per_rep": per(tot("engine", own), attempted, 1e3),
            "engine.hit_frac": per(c["hits"], c["replicates"], 1.0),
            "engine.weight_ess_frac": (float(np.mean(self.ess_fracs))
                                       if self.ess_fracs else 0.0),
            "measure.context_ms": per(tot("measure.context"), num("measure.context"), 1e6),
            "measure.context_calls": per(c["context_calls"], num(CLI_SPAN), 1.0),
            "measure.quad_points": per(c["quad_points"], c["context_calls"], 1.0),
            "measure.tau_us": per(tot("measure.tau"), num("measure.tau"), 1e3),
            "measure.tau_accept_ratio": per(c["tau_draws"], c["tau_candidates"], 1.0),
            "measure.tail_us": per(tot("measure.tail"), num("measure.tail"), 1e3),
            "design.density_ms": per(tot("design.density"), num("design.density"), 1e6),
            "design.sample_us": per(tot("design.sample"), num("design.sample"), 1e3),
            "design.inside_frac": per(c["design_inside"], c["design_points"], 1.0),
            "design.estimator_us": per(tot("design.estimator"), c["replicates"], 1e3),
            "field.moments_us": per(tot("field.moments"), num("field.moments"), 1e3),
            "field.factor_us": per(tot("field.factor"), num("field.factor"), 1e3),
            "field.factor_attempts_per_call": per(c["factor_attempts"], c["factor_calls"], 1.0),
            "field.factor_gflop_computed": per(c["factor_flop"], c["factor_calls"], 1e9),
            "oracles.truth_ms": per(tot("oracles.truth"), num("oracles.truth"), 1e6),
            "cli.self_ms": per(tot(CLI_SPAN, own), num(CLI_SPAN), 1e6),
            "trace.overhead_frac": (traced_wall / 1e9 / untraced_wall_s - 1.0
                                    if untraced_wall_s > 0 else 0.0),
            "trace.coverage_frac": per(callee, traced_wall, 1.0),
        }
        return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
