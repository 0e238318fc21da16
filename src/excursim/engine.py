"""End-to-end replicate engine: tilted draws, estimators, aggregation.

One replicate draws tau, the exceeding value f(tau), the design points, and
the conditional field values, then forms the importance-weighted estimates of
the tail probability and (optionally) of an integral over the excursion set.
Replicates own deterministically derived RNG streams keyed by (seed, index),
so results are independent of worker count, and aggregation uses exact
compensated summation to stay order-insensitive.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .design import (
    DesignDensity,
    DesignDraw,
    ScaleFactors,
    alpha_hat,
    choose_m,
    cluster_scale,
    mes_hat,
    sample_design_points,
)
from .errors import (
    ConfigurationError,
    ExcursimError,
    InsufficientReplicatesError,
    IntegrandBoundsError,
    NoHitError,
    ReplicateFailureError,
)
from .field import BoxDomain, FieldModel, PowerExponential, _conditional_draw, log_gaussian_tail
from .measure import MeasureContext, measure_context, sample_tau, sample_truncated_tail

__all__ = [
    "Replicate",
    "EstimateReport",
    "IntegrandSpec",
    "run_tail_replicate",
    "run_integral_replicate",
    "aggregate",
    "estimate_tail",
    "estimate_excursion_integral",
    "estimate_tail_and_excursion",
    "estimate_conditional",
    "pickands_estimate",
    "estimate_pickands",
]

_FAILURE_FRACTION = 1e-3  # a run aborts if more replicates than this error out


# ---------------------------------------------------------------------------
# Replicates
# ---------------------------------------------------------------------------

@dataclass
class Replicate:
    """One tilted draw and its estimator values.

    ``log_z`` and ``log_y`` are log z_hat and log y_hat (-inf on a miss); they
    stay finite at levels where z_hat and y_hat underflow to zero.  ``rank``
    is the numerical rank of the conditional covariance, i.e. the number of
    normals the draw consumed.
    """

    tau: np.ndarray
    value_at_tau: float
    draw: DesignDraw
    field_values: np.ndarray
    mes: float
    indicator: bool
    z_hat: float
    log_z: float = -math.inf
    y_hat: float | None = None
    log_y: float = -math.inf
    rank: int = 0
    stream: int = -1


@dataclass
class IntegrandSpec:
    """Deterministic integrand xi(t) with declared bounds 0 < a1 <= xi <= a2.

    Bounds are spot-checked on a coarse domain grid at construction and
    enforced on every design draw.
    """

    func: object
    lower: float
    upper: float
    domain_checked: bool = dc_field(default=False, repr=False)

    @classmethod
    def constant(cls, value: float, model: FieldModel) -> "IntegrandSpec":
        c = float(value)
        return cls.from_function(lambda pts: np.full(pts.shape[0], c), c, c, model)

    @classmethod
    def from_function(cls, func, lower: float, upper: float,
                      model: FieldModel) -> "IntegrandSpec":
        if not 0.0 < lower <= upper:
            raise ConfigurationError("integrand bounds need 0 < a1 <= a2")
        spec = cls(func=func, lower=float(lower), upper=float(upper))
        spec._spot_check(model)
        return spec

    def _spot_check(self, model: FieldModel, per_axis: int = 9):
        axes = [np.linspace(model.domain.lower[i], model.domain.upper[i], per_axis)
                for i in range(model.dimension)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = self(pts)
        if np.any(vals < self.lower) or np.any(vals > self.upper):
            raise IntegrandBoundsError(
                f"integrand leaves [{self.lower}, {self.upper}] on the domain grid")
        self.domain_checked = True

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(points), dtype=float)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _draw_replicate(model: FieldModel, ctx: MeasureContext, scales: ScaleFactors,
                    density: DesignDensity, m: int, rng, stream: int):
    tau = sample_tau(model, ctx, rng)
    mu_tau = float(model.mean_at(tau)[0])
    sig_tau = float(model.std_at(tau)[0])
    value = sample_truncated_tail(mu_tau, sig_tau, ctx.gamma, rng)
    draw = sample_design_points(tau, scales.zeta, m, density, model.domain, rng)
    values, rank = _conditional_draw(model, tau, value, draw.points, rng)
    mes = mes_hat(values, ctx.gamma, draw)
    indicator = bool(np.any((values > ctx.b) & draw.inside))
    # indicator implies a design point above b > gamma inside T, hence mes > 0
    log_z = ctx.log_norm_integral - math.log(mes) if indicator else -math.inf
    return Replicate(tau=tau, value_at_tau=value, draw=draw, field_values=values,
                     mes=mes, indicator=indicator, z_hat=math.exp(log_z), log_z=log_z,
                     rank=rank, stream=stream)


def run_tail_replicate(model: FieldModel, ctx: MeasureContext, scales: ScaleFactors,
                       density: DesignDensity, m: int, rng, stream: int = -1) -> Replicate:
    """One draw of the tail-probability estimator."""
    return _draw_replicate(model, ctx, scales, density, m, rng, stream)


def run_integral_replicate(model: FieldModel, ctx: MeasureContext, scales: ScaleFactors,
                           density: DesignDensity, m: int, integrand: IntegrandSpec,
                           rng, stream: int = -1) -> Replicate:
    """One draw carrying both the tail and the excursion-integral estimators."""
    rep = _draw_replicate(model, ctx, scales, density, m, rng, stream)
    xi = integrand(rep.draw.points)
    a_hat = alpha_hat(xi, rep.field_values, ctx.b, rep.draw, integrand.bounds)
    if a_hat > 0.0:
        rep.log_y = ctx.log_norm_integral + math.log(a_hat) - math.log(rep.mes)
    rep.y_hat = math.exp(rep.log_y)
    return rep


# ---------------------------------------------------------------------------
# Parallel replicate runner
# ---------------------------------------------------------------------------

def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _run_replicates(replicate_fn, n: int, seed, workers: int | None):
    """Run n replicates on deterministic per-index streams.

    Results are stored by replicate index, so the outcome is identical for
    any worker count.  Per-replicate numerical failures are collected; the
    run aborts if more than 0.1% of replicates error.
    """
    key = _seed_key(seed)
    results: list = [None] * n
    failures: list = []

    def run_range(lo: int, hi: int):
        for i in range(lo, hi):
            rng = np.random.default_rng(key + (i,))
            try:
                results[i] = replicate_fn(rng, i)
            except ExcursimError as exc:
                failures.append((i, exc))

    workers = max(1, workers or 1)
    if workers == 1 or n < 2 * workers:
        run_range(0, n)
    else:
        chunk = (n + workers - 1) // workers
        spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda span: run_range(*span), spans))

    if len(failures) > _FAILURE_FRACTION * n:
        idx, exc = failures[0]
        raise ReplicateFailureError(
            f"{len(failures)}/{n} replicates failed; first failure at stream {idx}: {exc}")
    return [r for r in results if r is not None], len(failures)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    """Aggregated estimate with its Monte Carlo error and run bookkeeping."""

    target: str
    estimate: float
    std_err: float
    n: int
    b: float | None = None
    m: int | None = None
    seed: object = None
    log_estimate: float = -math.inf
    log_std_err: float = -math.inf
    wall_time_s: float | None = None
    errored: int = 0
    epsilon: float | None = None
    delta: float | None = None
    n_required: float | None = None
    config_digest: str | None = None

    @property
    def rel_std_err(self) -> float:
        return self.std_err / self.estimate if self.estimate > 0 else math.inf


def _log_mean_and_std_err(log_values: list[float]) -> tuple[float, float]:
    """log of the sample mean and of its standard error, from log values.

    The values are scaled by the largest before exponentiating, so the
    result stays finite where the values themselves underflow.
    """
    top = max(log_values)
    if top == -math.inf:
        return -math.inf, -math.inf
    n = len(log_values)
    scaled = [math.exp(v - top) for v in log_values]
    mean = math.fsum(scaled) / n
    var = math.fsum((v - mean) ** 2 for v in scaled) / (n - 1)
    return top + math.log(mean), (top + 0.5 * math.log(var / n) if var > 0 else -math.inf)


def aggregate(values, *, target: str = "mean", epsilon: float | None = None,
              delta: float | None = None, log_values=None, **meta) -> EstimateReport:
    """Sample mean and standard error over replicate values.

    ``log_values``, the logs of the same values, give ``log_estimate`` and
    ``log_std_err`` by log-sum-exp, so they stay finite at levels where the
    values underflow to zero; without them both are the logs of the linear
    figures.

    When (epsilon, delta) are given, also reports the Chebyshev replicate
    count  n_required = Var / (delta * epsilon^2 * mean^2)  needed for
    P(|estimate - truth| < epsilon * truth) > 1 - delta, using the empirical
    variance in place of the unknown true one.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n < 2:
        raise InsufficientReplicatesError("need at least two replicate values")
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    std_err = math.sqrt(var / n)
    n_required = None
    if epsilon is not None and delta is not None:
        if not (0.0 < epsilon and 0.0 < delta < 1.0):
            raise ValueError("need epsilon > 0 and delta in (0, 1)")
        n_required = var / (delta * epsilon ** 2 * mean ** 2) if mean > 0 else math.inf
    if log_values is None:
        log_estimate = math.log(mean) if mean > 0 else -math.inf
        log_std_err = math.log(std_err) if std_err > 0 else -math.inf
    else:
        log_estimate, log_std_err = _log_mean_and_std_err([float(v) for v in log_values])
    return EstimateReport(
        target=target, estimate=mean, std_err=std_err, n=n, log_estimate=log_estimate,
        log_std_err=log_std_err, epsilon=epsilon, delta=delta, n_required=n_required,
        **meta)


# ---------------------------------------------------------------------------
# Top-level drivers
# ---------------------------------------------------------------------------

def _prepare(model: FieldModel, b: float, m: int | None, eps: float | None,
             lam: float, density: DesignDensity | None, tau_sampler: str):
    ctx = measure_context(model, b, tau_sampler=tau_sampler)
    scales = cluster_scale(model, b)
    if m is None:
        if eps is None:
            raise ConfigurationError("specify either m or eps")
        m = choose_m(eps, model, lam)
    if density is None:
        density = DesignDensity(model.dimension)
    return ctx, scales, int(m), density


def estimate_tail(model: FieldModel, b: float, n: int, m: int | None = None, *,
                  eps: float | None = None, lam: float = 1.0,
                  density: DesignDensity | None = None, seed=0,
                  workers: int | None = None, tau_sampler: str = "auto",
                  epsilon: float | None = None, delta: float | None = None,
                  ) -> EstimateReport:
    """Estimate P(sup_T f > b) from n independent tilted replicates."""
    ctx, scales, m, density = _prepare(model, b, m, eps, lam, density, tau_sampler)
    start = time.perf_counter()
    reps, errored = _run_replicates(
        lambda rng, i: run_tail_replicate(model, ctx, scales, density, m, rng, i),
        n, seed, workers)
    report = aggregate([r.z_hat for r in reps], log_values=[r.log_z for r in reps],
                       target="sup_tail", epsilon=epsilon, delta=delta,
                       b=float(b), m=m, seed=seed, errored=errored)
    report.wall_time_s = time.perf_counter() - start
    return report


def estimate_tail_and_excursion(model: FieldModel, b: float, n: int,
                                m: int | None = None, *,
                                integrand: IntegrandSpec | None = None,
                                eps: float | None = None, lam: float = 1.0,
                                density: DesignDensity | None = None, seed=0,
                                workers: int | None = None, tau_sampler: str = "auto",
                                epsilon: float | None = None, delta: float | None = None,
                                ) -> tuple[EstimateReport, EstimateReport]:
    """Joint run returning (tail report, excursion-integral report).

    Both estimates come from the same replicates, mirroring a paired design;
    the integrand defaults to 1, making the second report an estimate of the
    expected excursion volume E mes({f > b}).
    """
    ctx, scales, m, density = _prepare(model, b, m, eps, lam, density, tau_sampler)
    if integrand is None:
        integrand = IntegrandSpec.constant(1.0, model)
    start = time.perf_counter()
    reps, errored = _run_replicates(
        lambda rng, i: run_integral_replicate(model, ctx, scales, density, m,
                                              integrand, rng, i),
        n, seed, workers)
    elapsed = time.perf_counter() - start
    tail = aggregate([r.z_hat for r in reps], log_values=[r.log_z for r in reps],
                     target="sup_tail", epsilon=epsilon, delta=delta,
                     b=float(b), m=m, seed=seed, errored=errored)
    integral = aggregate([r.y_hat for r in reps], log_values=[r.log_y for r in reps],
                         target="excursion_integral", epsilon=epsilon, delta=delta,
                         b=float(b), m=m, seed=seed, errored=errored)
    tail.wall_time_s = elapsed
    integral.wall_time_s = elapsed
    return tail, integral


def estimate_excursion_integral(model: FieldModel, b: float, n: int,
                                m: int | None = None, *,
                                integrand: IntegrandSpec | None = None,
                                **kwargs) -> EstimateReport:
    """Estimate E[integral of xi over the excursion set above b]."""
    _, integral = estimate_tail_and_excursion(model, b, n, m, integrand=integrand, **kwargs)
    return integral


def estimate_conditional(model: FieldModel, b: float, n: int,
                         m: int | None = None, *,
                         integrand: IntegrandSpec | None = None,
                         eps: float | None = None, lam: float = 1.0,
                         density: DesignDensity | None = None, seed=0,
                         workers: int | None = None, tau_sampler: str = "auto",
                         ) -> EstimateReport:
    """Paired-ratio estimate of E[integral of xi over {f > b}] given sup f > b.

    The same replicates feed numerator and denominator; the standard error
    comes from the delta method applied to the paired values.
    """
    ctx, scales, m, density = _prepare(model, b, m, eps, lam, density, tau_sampler)
    if integrand is None:
        integrand = IntegrandSpec.constant(1.0, model)
    start = time.perf_counter()
    reps, errored = _run_replicates(
        lambda rng, i: run_integral_replicate(model, ctx, scales, density, m,
                                              integrand, rng, i),
        n, seed, workers)
    n_ok = len(reps)
    if n_ok < 2:
        raise InsufficientReplicatesError("need at least two replicate values")
    ys = [r.y_hat for r in reps]
    zs = [r.z_hat for r in reps]
    sum_z = math.fsum(zs)
    if sum_z <= 0.0:
        raise NoHitError(f"no replicate hit the excursion event at b={b}; increase n")
    ratio = math.fsum(ys) / sum_z
    y_bar = math.fsum(ys) / n_ok
    z_bar = sum_z / n_ok
    s_yy = math.fsum((y - y_bar) ** 2 for y in ys) / (n_ok - 1)
    s_zz = math.fsum((z - z_bar) ** 2 for z in zs) / (n_ok - 1)
    s_yz = math.fsum((y - y_bar) * (z - z_bar) for y, z in zip(ys, zs)) / (n_ok - 1)
    var_ratio = (s_yy - 2.0 * ratio * s_yz + ratio ** 2 * s_zz) / (n_ok * z_bar ** 2)
    report = EstimateReport(
        target="conditional_expectation", estimate=ratio,
        std_err=math.sqrt(max(var_ratio, 0.0)), n=n_ok, b=float(b), m=m, seed=seed,
        log_estimate=math.log(ratio) if ratio > 0 else -math.inf, errored=errored)
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Tail-asymptotics prefactor (Pickands constant)
# ---------------------------------------------------------------------------

def _log_prefactor_scale(alpha: float, b: float) -> float:
    """log(b**(2/alpha) * P(Z > b)), finite at levels where P(Z > b) underflows."""
    if not 0.0 < alpha <= 2.0:
        raise ConfigurationError("alpha must lie in (0, 2]")
    return (2.0 / alpha) * math.log(b) + float(log_gaussian_tail(b))


def pickands_estimate(alpha: float, b: float, w_hat: float) -> float:
    """Prefactor estimate H = w_hat / (b**(2/alpha) * P(Z > b)).

    For a stationary unit-variance process on [0, 1] with correlation
    exp(-|t|**alpha), this converges to the Pickands constant H_alpha as the
    level grows.  At finite b the exact value is the level-b prefactor, not
    H_alpha: for alpha = 2 it is 0.746, 0.718 and 0.698 at b = 6, 7, 8,
    against H_2 = 1/sqrt(pi) ~ 0.564, so estimates at different levels are
    not expected to agree.  The denominator is formed in log space, so the
    estimate stays finite at levels where P(Z > b) underflows.
    """
    log_scale = _log_prefactor_scale(alpha, b)
    if w_hat < 0.0:
        raise ValueError("w_hat must be non-negative")
    return math.exp(math.log(w_hat) - log_scale) if w_hat > 0.0 else 0.0


def estimate_pickands(alpha: float, b: float, n: int, m: int = 20, *,
                      density: DesignDensity | None = None, seed=0,
                      workers: int | None = None) -> EstimateReport:
    """Estimate the tail prefactor from the unit-interval power-exponential
    model exp(-|t|**alpha); returns a report whose estimate is H.

    The estimate targets the level-b prefactor w(b) / (b**(2/alpha) P(Z > b)),
    which tends to the Pickands constant H_alpha only as b grows (see
    ``pickands_estimate``): for alpha = 2 it is 0.746, 0.718 and 0.698 at
    b = 6, 7, 8, against H_2 ~ 0.564.  Estimate and standard error come from
    the report's log figures, so they stay finite where w(b) underflows.
    """
    log_scale = _log_prefactor_scale(alpha, b)
    model = FieldModel(BoxDomain([0.0], [1.0]), PowerExponential(alpha, 1.0))
    report = estimate_tail(model, b, n, m, density=density, seed=seed, workers=workers)
    report.target = "pickands_constant"
    report.log_estimate -= log_scale
    report.log_std_err -= log_scale
    report.estimate = math.exp(report.log_estimate)
    report.std_err = math.exp(report.log_std_err)
    return report
