"""Workloads, timed loop, correctness gate and end-to-end metrics.

The benchmark drives excursim only through ``excursim.cli.run_table``, the
path ``excursim table`` and ``excursim estimate`` take, with configs it
generates from the workload seed.  Import this module only after the
BLAS/OpenMP thread pools are pinned (``run.py`` does that).
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.special import ndtr

import excursim
from excursim import cli
from excursim.errors import ExcursimError
from excursim.oracles import cosine_truth, expected_excursion_measure

from tracing import Tracer

END_TO_END = {
    "replicates_per_s": ("1/s", "higher"),
    "time_to_1pct_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
}

WARMUP_REPLICATES = 4
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 40
SETUP_BUDGET_S = 1.0
GATE_SIGMAS = 4.0
TARGET_REL_ERR = 0.01

_EXCURSION_BASE = {"targets": ("sup_tail", "excursion_integral"),
                   "oracle": "excursion_quadrature"}


def _rice_sqexp_unit(model, b: float) -> float:
    """Rice tail Psi(b) + T sqrt(lambda2) / (2 pi) e^{-b^2/2} for exp(-t^2)
    on [0, 1] (T = 1, lambda2 = 2); exact up to an exponentially smaller term."""
    return float(ndtr(-b)) + math.sqrt(2.0) / (2.0 * math.pi) * math.exp(-0.5 * b * b)


def _cosine(model, b: float) -> float:
    return cosine_truth(b)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    labels: tuple
    replicates: int          # n per level in one run_table call
    oracles: dict            # (label, target) -> oracle(model, b)
    # Relative allowance for the estimator's finite-m discretization bias,
    # added to the gate's Monte Carlo band: at m=40 the 2-d excursion-integral
    # rows run 3-5% high (25 seeds at n=1000); at m=320 the 1-d sup tail runs
    # 0.2-0.3% high (n=2e4).
    bias_allowance: float
    spec: dict = field(default_factory=dict)  # `excursim estimate` settings; empty for presets

    def config(self, label: str, seed: int, n: int):
        """The config ``excursim table``/``estimate`` would build for one call."""
        overrides = {"seed": seed, "n": n, "workers": 1, "timing": True}
        if self.spec:
            return cli.build_config(_EXCURSION_BASE, {**self.spec, **overrides})
        return cli.table_config(label, overrides)


def _large_m(name: str, why: str, kernel: str, oracles: dict) -> Workload:
    return Workload(
        name=name, why=why, labels=(name,), replicates=100, oracles=oracles,
        bias_allowance=0.01,
        spec={"kernel": kernel, "domain": "0,1", "b": "6,7,8", "m": 320})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-tables",
        why=("presets table1..table4 at b=3..8 and paper m (20/40): per-replicate Python "
             "overhead dominates; the only workload on the non-constant-mean path"),
        labels=("table1", "table2", "table3", "table4"), replicates=1000,
        oracles={("table1", "sup_tail"): _cosine,
                 ("table2", "excursion_integral"): expected_excursion_measure,
                 ("table3", "excursion_integral"): expected_excursion_measure,
                 ("table4", "excursion_integral"): expected_excursion_measure},
        bias_allowance=0.06),
    _large_m("large-m-smooth",
             ("1-d sqexp at m=320, b=6,7,8: factorization dominates, rung-0 Cholesky "
              "fails on every call and the covariance is numerically low-rank"),
             "sqexp", {("large-m-smooth", "sup_tail"): _rice_sqexp_unit,
                       ("large-m-smooth", "excursion_integral"): expected_excursion_measure}),
    _large_m("large-m-rough",
             ("1-d exponential at m=320, b=6,7,8: same layer, full-rank covariance and "
              "no ridge retry; a low-rank factorization must show no loss here"),
             "exponential", {("large-m-rough", "excursion_integral"):
                             expected_excursion_measure}),
)}


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------

@dataclass
class Call:
    label: str
    config: object
    wall_s: float
    rows: list | None
    error: str | None = None

    @property
    def attempted(self) -> int:
        return self.config.n * len(self.config.b)


def run_call(label: str, config, tracer: Tracer | None = None) -> Call:
    start = time.perf_counter()
    try:
        if tracer is None:
            rows = cli.run_table(config)
        else:
            with tracer.span("cli"):
                rows = cli.run_table(config)
    except ExcursimError as exc:
        return Call(label, config, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    return Call(label, config, time.perf_counter() - start, rows)


class SeedStream:
    """Per-call seeds derived from the workload seed; same seed, same configs."""

    def __init__(self, workload: Workload, seed: int):
        self._rng = random.Random(f"{workload.name}/{seed}")

    def next(self) -> int:
        return self._rng.randrange(2 ** 31)


def timed_loop(workload: Workload, seeds: SeedStream, seconds: float, n: int) -> list[Call]:
    """Whole rounds (one call per label) until ``seconds`` have passed; at
    least one round, so the workload mix is the same in every run."""
    calls = []
    deadline = time.perf_counter() + seconds
    while True:
        for label in workload.labels:
            calls.append(run_call(label, workload.config(label, seeds.next(), n)))
        if time.perf_counter() >= deadline:
            return calls


def time_setup(workload: Workload, seed: int) -> float:
    """Median time to build the models, design densities and, per level, the
    measure contexts and cluster scales the workload's calls need."""
    configs = [workload.config(label, seed, workload.replicates) for label in workload.labels]
    times = []
    spent = 0.0
    while len(times) < SETUP_MIN_REPEATS or (spent < SETUP_BUDGET_S
                                             and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        for config in configs:
            model = cli.config_model(config)
            cli.config_density(config, model)
            for b in config.b:
                excursim.measure_context(model, b)
                excursim.cluster_scale(model, b)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _pooled(calls: list[Call]) -> dict:
    """(label, b, target) -> (mean estimate, pooled std err, calls pooled)."""
    groups: dict = {}
    for call in calls:
        for row in call.rows or ():
            key = (call.label, float(row["b"]), row["target"])
            groups.setdefault(key, []).append((float(row["est"]), float(row["std_err"])))
    out = {}
    for key, pairs in groups.items():
        k = len(pairs)
        out[key] = (math.fsum(e for e, _ in pairs) / k,
                    math.sqrt(math.fsum(s * s for _, s in pairs)) / k, k)
    return out


def gate(workload: Workload, calls: list[Call]) -> tuple[bool, list[str]]:
    """Every estimate finite and positive; every row with an oracle within
    4 pooled standard errors plus the workload's bias allowance of it."""
    ok = True
    lines = []
    for call in calls:
        for row in call.rows or ():
            est, se = float(row["est"]), float(row["std_err"])
            if not (math.isfinite(est) and est > 0.0 and math.isfinite(se)):
                ok = False
                lines.append(f"gate FAIL {call.label} b={row['b']} {row['target']}: "
                             f"est={row['est']} std_err={row['std_err']}")
    models = {}
    for (label, b, target), (est, se, k) in sorted(_pooled(calls).items()):
        oracle = workload.oracles.get((label, target))
        if oracle is None:
            continue
        if label not in models:
            config = next(c.config for c in calls if c.label == label)
            models[label] = cli.config_model(config)
        truth = oracle(models[label], b)
        band = GATE_SIGMAS * se + workload.bias_allowance * truth
        passed = abs(est - truth) <= band
        ok = ok and passed
        z = (est - truth) / se if se > 0 else math.inf
        lines.append(f"gate {'ok  ' if passed else 'FAIL'} {label} b={b:g} {target}: "
                     f"est={est:.6e} truth={truth:.6e} rel={(est - truth) / truth:+.4f} "
                     f"z={z:+.2f} over {k} calls")
    return ok, lines


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def replicates_per_s(calls: list[Call]) -> float:
    """Replicates attempted over the calls' wall time, taken per label as the
    number of calls times the median call time, so a burst of load from
    outside the process moves the figure less than a sum would."""
    by_label: dict = {}
    for call in calls:
        by_label.setdefault(call.label, []).append(call.wall_s)
    wall = sum(len(w) * statistics.median(w) for w in by_label.values())
    return sum(c.attempted for c in calls) / wall


def call_time_to_target(call: Call) -> float:
    """Wall time to reach 1% relative error at every level of one call:
    sum over levels of the level's wall time x (rel std err / 1%)^2, worse
    target of the level.  The call's wall time (measured here) is split
    across its levels in proportion to the per-level times it reports."""
    level_ms: dict = {}
    worst: dict = {}
    for row in call.rows:
        b = float(row["b"])
        est, se = float(row["est"]), float(row["std_err"])
        level_ms[b] = float(row["wall_time_ms"])
        worst[b] = max(worst.get(b, 0.0), se / est if est > 0 else math.inf)
    total = sum(level_ms.values())
    return sum(call.wall_s * (ms / total if total > 0 else 1.0 / len(level_ms))
               * (worst[b] / TARGET_REL_ERR) ** 2 for b, ms in level_ms.items())


def time_to_target(calls: list[Call]) -> float:
    """Sum over labels of the median per-call time to 1% relative error.

    The median, not the pooled variance, because the importance weights are
    heavy-tailed: a rare huge weight would otherwise dominate the run."""
    by_label: dict = {}
    for call in calls:
        if call.rows:
            by_label.setdefault(call.label, []).append(call_time_to_target(call))
    value = sum(statistics.median(v) for v in by_label.values())
    return value if math.isfinite(value) else sys.float_info.max


def replicate_counts(calls: list[Call]) -> tuple[int, int]:
    """(attempted, errored); a call that raised counts all its replicates."""
    attempted = errored = 0
    for call in calls:
        attempted += call.attempted
        if call.rows is None:
            errored += call.attempted
            continue
        per_level = {row["b"]: int(row["errored_replicates"]) for row in call.rows}
        errored += sum(per_level.values())
    return attempted, errored


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": threads, "workers": 1, "seed": seed}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list
    identical: bool | None = None

    def summary(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _rows_without_timing(calls: list[Call]) -> list:
    return [None if c.rows is None else
            [{k: v for k, v in row.items() if k != "wall_time_ms"} for row in c.rows]
            for c in calls]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 replicates: int | None = None, trace_dir: str | None = None) -> Result:
    """One benchmark run.  Untraced: the end-to-end metrics.  Traced: the same
    calls run untraced then traced (seconds split between them), giving the
    per-layer metrics and the tracing overhead."""
    workload = WORKLOADS[name]
    n = replicates or workload.replicates
    lines = [f"env {environment(seed)}"]
    setup_s = time_setup(workload, seed)
    warm = SeedStream(workload, seed + 2 ** 31)
    for label in workload.labels:
        run_call(label, workload.config(label, warm.next(), min(n, WARMUP_REPLICATES)))

    calls = timed_loop(workload, SeedStream(workload, seed),
                       seconds / 2 if trace else seconds, n)
    attempted, failed = replicate_counts(calls)
    gate_ok, gate_lines = gate(workload, calls)
    lines += gate_lines
    lines += [f"call {c.label} seed={c.config.seed} raised {c.error}" for c in calls if c.error]
    wall = sum(c.wall_s for c in calls)
    identical = None
    if trace:
        tracer = Tracer()
        with tracer.installed():
            replay = [run_call(c.label, c.config, tracer) for c in calls]
        identical = _rows_without_timing(replay) == _rows_without_timing(calls)
        metrics = tracer.layer_metrics(attempted, wall)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{name}-seed{seed}.npz"))
        lines.append(f"traced estimates bit-identical to untraced: {identical}")
    correct = gate_ok and identical is not False
    if not correct:
        failed = attempted
    if not trace:
        values = {
            "replicates_per_s": replicates_per_s(calls),
            "time_to_1pct_s": time_to_target(calls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    lines.append(f"{len(calls)} run_table calls, {attempted} replicates, "
                 f"{wall:.3f} s timed, set-up {setup_s:.4f} s")
    return Result(correct, attempted, failed, metrics, lines, identical)

