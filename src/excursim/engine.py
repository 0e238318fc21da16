"""End-to-end replicate engine: tilted draws, estimators, aggregation.

Replicates are drawn in blocks.  A block of B replicates draws, from one RNG
stream keyed (seed, block index), all its locations tau, all its exceeding
values f(tau), one (B, m, d) design draw, and the conditional field values of
each replicate, then forms the importance-weighted estimates of the tail
probability and (optionally) of an integral over the excursion set.  B is
fixed by m alone, so results are independent of worker count; worker threads
take whole blocks.  Below m = 256 a byte budget for the block's covariance
buffer sets B, and the field is drawn at all m points from the assembled
covariances.  From m = 256 on, blocks are 16 replicates and the field is
drawn only at the design points inside T, the only ones the estimators read:
a 1-d exponential block as one Markov chain outward from each tau, a 1-d
built-in shape-2 kernel from one kernel-column factorization of the whole
block, and any other model row by row from the row's assembled covariance.
A run keeps per-replicate scalars only, as parallel arrays (log z, log y,
mes, rank, ok).  Every estimator aggregates from the log weights, scaled by
their largest value so that they stay finite where the weights underflow,
with exact compensated summation to stay order-insensitive.

A replicate whose kernel values (from m = 256 on, also its mean or std) are
not finite, whose covariance is indefinite beyond rounding, or whose
integrand leaves its declared bounds at a design point inside T is dropped
and counted as errored; the rest of its block is kept.  Any other failure,
such as a non-finite model value at tau, drops its whole block.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .design import (
    DesignDensity,
    DesignDraw,
    alpha_hat_block,
    cluster_scale,
    mes_hat_block,
    sample_design_block,
    within_bounds,
)
# Not called here; perfbench/tracing.py patches these names on this module.
from .design import alpha_hat, mes_hat, sample_design_points  # noqa: F401
from .errors import (
    ConfigurationError,
    ExcursimError,
    InsufficientReplicatesError,
    IntegrandBoundsError,
    NoHitError,
    ReplicateFailureError,
)
from .field import (
    BoxDomain,
    FieldModel,
    PowerExponential,
    _conditional_draw_block,
    _conditional_draw_inside,
    log_gaussian_tail,
)
from .measure import (
    MeasureContext,
    measure_context,
    proposal_ratio,
    sample_tau,
    sample_truncated_tail,
)

__all__ = [
    "ReplicateArrays",
    "block_size",
    "EstimateReport",
    "IntegrandSpec",
    "aggregate",
    "estimate_tail",
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
class IntegrandSpec:
    """Deterministic integrand xi(t) with declared bounds 0 < a1 <= xi <= a2 on T.

    Bounds are spot-checked on a coarse domain grid at construction and
    enforced at the design points inside T of every draw, the only ones the
    estimators read: a replicate whose integrand values there leave them is
    dropped.  Values outside T are never checked or read.
    """

    func: object
    lower: float
    upper: float

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
        if not within_bounds(self(pts), self.bounds):
            raise IntegrandBoundsError(
                f"integrand leaves [{self.lower}, {self.upper}] on the domain grid")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(points), dtype=float)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.lower, self.upper)


# Byte budget of one block's (B, m + 1, m) covariance buffer; it sets B below
# _INSIDE_ONLY_M, from which on blocks draw the field inside T only.
_BLOCK_BYTES = 1 << 20
_INSIDE_ONLY_M = 256


def block_size(m: int) -> int:
    """Replicates per block: about 300 at m = 20, 80 at m = 40, 16 from m = 256 on."""
    return 16 if m >= _INSIDE_ONLY_M else max(1, _BLOCK_BYTES // (8 * m * (m + 1)))


@dataclass
class _Block:
    """Results of one block of replicates: the per-replicate values, and the
    error of each dropped replicate by its row in the block."""

    log_z: np.ndarray
    log_y: np.ndarray
    mes: np.ndarray
    rank: np.ndarray
    errors: dict


@dataclass
class ReplicateArrays:
    """Per-replicate results as parallel arrays (struct of arrays).

    ``log_z`` and ``log_y`` are log z_hat and log y_hat (-inf on a miss, and
    ``log_y`` stays -inf when no integral is estimated); ``mes`` is the volume
    estimate and ``rank`` the rank of the conditional covariance the field
    was drawn from, the number of normals its draw took: of all m design
    points below m = 256, of the points inside T alone from m = 256 on (0
    when none is inside).  It is the numerical rank of a factored
    covariance, at most 64 on the kernel-column route, and exact on the
    Markov-chain route (the distinct inside points other than tau).
    ``ok`` is False for a dropped replicate, whose other entries mean nothing.
    """

    log_z: np.ndarray
    log_y: np.ndarray
    mes: np.ndarray
    rank: np.ndarray
    ok: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "ReplicateArrays":
        return cls(log_z=np.full(n, -np.inf), log_y=np.full(n, -np.inf),
                   mes=np.zeros(n), rank=np.zeros(n, dtype=np.int32),
                   ok=np.zeros(n, dtype=bool))

    def put(self, lo: int, block: _Block):
        """Store ``block`` as replicates lo onward; its dropped rows are not ok."""
        hi = lo + block.log_z.size
        for name in ("log_z", "log_y", "mes", "rank"):
            getattr(self, name)[lo:hi] = getattr(block, name)
        self.ok[lo:hi] = True
        self.ok[[lo + row for row in block.errors]] = False

    def kept(self) -> "ReplicateArrays":
        ok = self.ok
        return ReplicateArrays(log_z=self.log_z[ok], log_y=self.log_y[ok], mes=self.mes[ok],
                               rank=self.rank[ok], ok=ok[ok])


@dataclass
class _DrawnBlock(_Block):
    """A block with its design draw and conditional field values."""

    draws: DesignDraw
    field_values: np.ndarray


def _draw_block(model: FieldModel, ctx: MeasureContext, zeta: float,
                density: DesignDensity, m: int, integrand: IntegrandSpec | None,
                size: int, rng) -> _DrawnBlock:
    """Draw ``size`` replicates from one stream, in this order: the tau
    locations, the values f(tau), the design points, the field values.

    From m = 256 on, the field is drawn only at the design points inside T
    (``field._conditional_draw_inside``); the outside entries of
    ``field_values`` are NaN, which no estimator reads, and a replicate with
    no inside point draws no field and misses (mes, z and y are 0).  Below
    m = 256 every block, a trailing block of one included, draws at all m points.
    """
    taus = sample_tau(model, ctx, rng, size=size)
    values_at_tau = sample_truncated_tail(model.mean_at(taus), model.std_at(taus),
                                          ctx.gamma, rng, size=size)
    draws = sample_design_block(taus, zeta, m, density, model.domain, rng)
    if m >= _INSIDE_ONLY_M:
        # the estimators read the field only inside T: draw it there alone
        field_values, rank, errors = _conditional_draw_inside(
            model, taus, values_at_tau, draws.points, draws.inside, rng)
    else:
        field_values, rank, errors = _conditional_draw_block(model, taus, values_at_tau,
                                                             draws.points, rng)
    ratio = proposal_ratio(model, ctx, draws.points)
    mes = mes_hat_block(field_values, ctx.gamma, draws, ratio)
    # a hit implies a design point above b > gamma inside T, hence mes > 0
    hits = np.any((field_values > ctx.b) & draws.inside, axis=1)
    log_z = np.full(size, -np.inf)
    log_z[hits] = ctx.log_norm_integral - np.log(mes[hits])
    log_y = np.full(size, -np.inf)
    if integrand is not None:
        xi = integrand(draws.points.reshape(-1, model.dimension)).reshape(size, m)
        # only values inside T are read, so only they must keep the bounds
        inside_xi = np.where(draws.inside, xi, integrand.lower)
        for i in np.flatnonzero(~within_bounds(inside_xi, integrand.bounds)):
            errors.setdefault(int(i), IntegrandBoundsError(
                f"integrand value outside declared bounds "
                f"[{integrand.lower}, {integrand.upper}]"))
        a_hat = alpha_hat_block(xi, field_values, ctx.b, draws)
        # a_hat > 0 needs a design point above b inside T, so mes > 0 there too
        positive = a_hat > 0.0
        log_y[positive] = (ctx.log_norm_integral + np.log(a_hat[positive])
                           - np.log(mes[positive]))
    return _DrawnBlock(log_z=log_z, log_y=log_y, mes=mes, rank=rank, errors=errors,
                       draws=draws, field_values=field_values)


# ---------------------------------------------------------------------------
# Block runner
# ---------------------------------------------------------------------------

def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _run_blocks(block_fn, n: int, size: int, seed, workers: int | None):
    """Run n replicates in blocks of ``size`` on deterministic per-block streams.

    ``block_fn(rng, lo, hi)`` draws replicates lo..hi-1 and returns a block.
    Block k (replicates k*size onward) uses the stream keyed seed + (k,), and
    results are stored by block index, so the outcome is identical for any
    worker count.  Returns (kept replicates, errored count); a block that
    raises counts all its replicates as errored, and the run aborts if more
    than 0.1% of replicates error.
    """
    key = _seed_key(seed)
    starts = range(0, n, size)
    results = ReplicateArrays.empty(n)
    first_failure: dict = {}  # block index -> (replicate index, error)

    def run_block(k: int):
        lo = starts[k]
        hi = min(lo + size, n)
        rng = np.random.default_rng(key + (k,))
        try:
            block = block_fn(rng, lo, hi)
        except ExcursimError as exc:
            first_failure[k] = (lo, exc)
            return
        results.put(lo, block)
        if block.errors:
            row = min(block.errors)
            first_failure[k] = (lo + row, block.errors[row])

    workers = max(1, workers or 1)
    if workers == 1 or len(starts) < 2:
        for k in range(len(starts)):
            run_block(k)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            list(pool.map(run_block, range(len(starts))))

    errored = n - int(np.count_nonzero(results.ok))
    if errored > _FAILURE_FRACTION * n:
        idx, exc = first_failure[min(first_failure)]
        raise ReplicateFailureError(
            f"{errored}/{n} replicates failed; first failure at replicate {idx}: {exc}")
    return results.kept(), errored


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

    @property
    def rel_std_err(self) -> float:
        return self.std_err / self.estimate if self.estimate > 0 else math.inf


def _mean_and_variance(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and variance by exact (compensated) summation."""
    n = values.size
    mean = math.fsum(values) / n
    deviation = values - mean
    deviation *= deviation
    return mean, math.fsum(deviation) / (n - 1)


def _scaled_by_max(log_values: np.ndarray) -> tuple[np.ndarray, float]:
    """(exp(log_values - top), top) with top the largest log value.

    The scaled values lie in [0, 1] with the largest equal to 1, so they stay
    finite where the values themselves underflow.  All -inf gives zeros and
    top = -inf.
    """
    top = float(np.max(log_values))
    if top == -math.inf:
        return np.zeros(log_values.shape), top
    return np.exp(log_values - top), top


def aggregate(*, log_values, target: str = "mean", **meta) -> EstimateReport:
    """Sample mean and standard error of replicate values, from their logs.

    One compensated pass over the values scaled by the largest gives the
    linear figures (``estimate``, ``std_err``) and the log figures
    (``log_estimate``, ``log_std_err``); the log figures stay finite at
    levels where the values and the linear figures underflow to zero.
    """
    logs = np.asarray(log_values, dtype=float)
    n = logs.size
    if n < 2:
        raise InsufficientReplicatesError("need at least two replicate values")
    scaled, top = _scaled_by_max(logs)
    mean, var = _mean_and_variance(scaled)
    unit = math.exp(top)
    return EstimateReport(
        target=target, estimate=unit * mean, std_err=unit * math.sqrt(var / n), n=n,
        log_estimate=top + math.log(mean) if mean > 0 else -math.inf,
        log_std_err=top + 0.5 * math.log(var / n) if var > 0 else -math.inf, **meta)


# ---------------------------------------------------------------------------
# Top-level drivers
# ---------------------------------------------------------------------------

def _simulate(model: FieldModel, b: float, n: int, m: int,
              density: DesignDensity | None, seed, workers: int | None,
              integrand: IntegrandSpec | None) -> tuple[ReplicateArrays, dict]:
    """Build the level's context and run n replicates in blocks.

    Returns the kept replicates and the report fields of the run: b, m,
    seed, the errored count and the wall time of the draws.
    """
    m = int(m)
    ctx = measure_context(model, b)
    zeta = cluster_scale(model, b)
    if density is None:
        density = DesignDensity(model.dimension)
    start = time.perf_counter()
    kept, errored = _run_blocks(
        lambda rng, lo, hi: _draw_block(model, ctx, zeta, density, m, integrand,
                                        hi - lo, rng),
        n, block_size(m), seed, workers)
    return kept, dict(b=float(b), m=m, seed=seed, errored=errored,
                      wall_time_s=time.perf_counter() - start)


def estimate_tail(model: FieldModel, b: float, n: int, m: int, *,
                  density: DesignDensity | None = None, seed=0,
                  workers: int | None = None) -> EstimateReport:
    """Estimate P(sup_T f > b) from n independent tilted replicates."""
    kept, run = _simulate(model, b, n, m, density, seed, workers, None)
    return aggregate(log_values=kept.log_z, target="sup_tail", **run)


def estimate_tail_and_excursion(model: FieldModel, b: float, n: int, m: int, *,
                                integrand: IntegrandSpec | None = None,
                                density: DesignDensity | None = None, seed=0,
                                workers: int | None = None
                                ) -> tuple[EstimateReport, EstimateReport]:
    """Joint run returning (tail report, excursion-integral report).

    Both estimates come from the same replicates, mirroring a paired design;
    the integrand defaults to 1, making the second report an estimate of the
    expected excursion volume E mes({f > b}).
    """
    if integrand is None:
        integrand = IntegrandSpec.constant(1.0, model)
    kept, run = _simulate(model, b, n, m, density, seed, workers, integrand)
    return tuple(
        aggregate(log_values=logs, target=target, **run)
        for target, logs in (("sup_tail", kept.log_z), ("excursion_integral", kept.log_y)))


def estimate_conditional(model: FieldModel, b: float, n: int, m: int, *,
                         integrand: IntegrandSpec | None = None,
                         density: DesignDensity | None = None, seed=0,
                         workers: int | None = None,
                         ) -> EstimateReport:
    """Paired-ratio estimate of E[integral of xi over {f > b}] given sup f > b.

    The same replicates feed numerator and denominator; the standard error
    comes from the delta method applied to the paired values.  Both y and z
    are scaled by exp(-max log z) first: the ratio and its delta-method
    variance do not change under a common scale, and y <= a2 z keeps the
    scaled y bounded, so the estimate stays finite at levels (b ~ 40) where
    every weight underflows.
    """
    if integrand is None:
        integrand = IntegrandSpec.constant(1.0, model)
    kept, run = _simulate(model, b, n, m, density, seed, workers, integrand)
    n_ok = kept.ok.size
    if n_ok < 2:
        raise InsufficientReplicatesError("need at least two replicate values")
    zs, top = _scaled_by_max(kept.log_z)
    if top == -math.inf:
        raise NoHitError(f"no replicate hit the excursion event at b={b}; increase n")
    ys = np.exp(kept.log_y - top)
    ratio = math.fsum(ys) / math.fsum(zs)
    y_bar, s_yy = _mean_and_variance(ys)
    z_bar, s_zz = _mean_and_variance(zs)
    s_yz = math.fsum((ys - y_bar) * (zs - z_bar)) / (n_ok - 1)
    var_ratio = (s_yy - 2.0 * ratio * s_yz + ratio ** 2 * s_zz) / (n_ok * z_bar ** 2)
    return EstimateReport(
        target="conditional_expectation", estimate=ratio,
        std_err=math.sqrt(max(var_ratio, 0.0)), n=n_ok,
        log_estimate=math.log(ratio) if ratio > 0 else -math.inf, **run)


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


def _pickands_model(alpha: float) -> FieldModel:
    """The unit-interval model exp(-|t|**alpha) whose prefactor
    :func:`estimate_pickands` estimates."""
    return FieldModel(BoxDomain([0.0], [1.0]), PowerExponential(alpha, 1.0))


def estimate_pickands(alpha: float, b: float, n: int, m: int, *,
                      density: DesignDensity | None = None, seed=0,
                      workers: int | None = None) -> EstimateReport:
    """Estimate the tail prefactor from the unit-interval power-exponential
    model exp(-|t|**alpha); returns a report whose estimate is H.

    The estimate targets the level-b prefactor w(b) / (b**(2/alpha) P(Z > b)),
    which tends to the Pickands constant H_alpha only as b grows (see
    ``pickands_estimate``): for alpha = 2 it is 0.746, 0.718 and 0.698 at
    b = 6, 7, 8, against H_2 ~ 0.564.  The log scale is subtracted from each
    replicate's log weight before aggregating, so estimate and standard error
    stay finite where w(b) underflows.
    """
    log_scale = _log_prefactor_scale(alpha, b)
    kept, run = _simulate(_pickands_model(alpha), b, n, m, density, seed, workers, None)
    return aggregate(log_values=kept.log_z - log_scale, target="pickands_constant", **run)
