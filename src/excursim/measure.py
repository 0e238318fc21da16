"""Exceedance-tilted sampling measure for a level b.

The measure re-weights the field law so that the rare excursion event becomes
common: a random location tau is drawn with density proportional to the
marginal exceedance probability P(f(t) > gamma) at the slightly lowered tilt
level gamma = b - 1/b, the field value at tau is drawn from its marginal
conditioned to exceed gamma, and the rest of the field follows the original
conditional law.  The importance weight against the original measure is
I_gamma / mes({f > gamma}) where I_gamma = integral of P(f(t) > gamma) over
the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import logsumexp

from .errors import (
    ConfigurationError,
    InvalidLevelError,
    InvalidWeightError,
    QuadratureError,
    SamplerInefficiencyError,
)
from .field import FieldModel, log_gaussian_tail, log_marginal_tail

__all__ = [
    "gamma_level",
    "QuadratureInfo",
    "normalizing_integral",
    "log_normalizing_integral",
    "MeasureContext",
    "measure_context",
    "location_log_density",
    "sample_tau",
    "sample_truncated_tail",
    "likelihood_ratio_weight",
]

_QUAD_REL_TOL = 1e-8
_QUAD_MAX_REFINEMENTS = 12
_QUAD_ORDER = 16
_QUAD_MAX_POINTS = 2 ** 22
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_QUAD_ORDER)
_ENVELOPE_GRID_BUDGET = 2 ** 20
_GRID_SAMPLER_BUDGET = 2 ** 18
_REJECTION_WARMUP = 1_000_000


def gamma_level(b: float) -> float:
    """Tilt level gamma = b - 1/b; requires b > 1 so that gamma > 0."""
    if not np.isfinite(b) or b <= 1.0:
        raise InvalidLevelError(
            f"level b={b} is outside the rare-event regime (need b > 1); "
            "use a crude Monte Carlo baseline at such levels")
    return b - 1.0 / b


# ---------------------------------------------------------------------------
# Normalizing integral I_gamma = int_T P(f(t) > gamma) dt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureInfo:
    rule: str
    points_per_axis: int
    refinements: int
    estimated_rel_error: float


def _gauss_legendre_axis(lo: float, hi: float, panels: int):
    # composite rule: fixed-order panels, refined dyadically; node cost stays
    # linear in the point count unlike raising the Gauss order itself
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, np.log(weights)


def _tensor_log_integral(model: FieldModel, gamma: float, panels: int) -> float:
    d = model.dimension
    axes = [_gauss_legendre_axis(model.domain.lower[i], model.domain.upper[i], panels)
            for i in range(d)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    logw_grids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    logw = sum(g.ravel() for g in logw_grids)
    return float(logsumexp(logw + log_marginal_tail(model, pts, gamma)))


def log_normalizing_integral(model: FieldModel, gamma: float) -> tuple[float, QuadratureInfo]:
    """log of int_T P(f(t) > gamma) dt.

    Constant mean and std take the exact fast path mes(T) * P(Z > z).  The
    general case uses tensor Gauss-Legendre quadrature with dyadic refinement
    until two successive refinements agree to relative 1e-8; the integrand is
    evaluated in log space and accumulated by log-sum-exp since its values
    span many orders of magnitude at high levels.
    """
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if model.constant_mean is not None and model.constant_std is not None:
        z = (gamma - model.constant_mean) / model.constant_std
        value = math.log(model.domain.measure) + float(log_gaussian_tail(z))
        return value, QuadratureInfo("constant-fast-path", 1, 0, 0.0)

    d = model.dimension
    panels = 1
    prev = _tensor_log_integral(model, gamma, panels)
    for refinement in range(1, _QUAD_MAX_REFINEMENTS + 1):
        panels *= 2
        if (_QUAD_ORDER * panels) ** d > _QUAD_MAX_POINTS:
            raise QuadratureError(
                f"normalizing integral not converged before the "
                f"{_QUAD_ORDER * panels}^{d} point cap; last log value {prev:.12g}")
        cur = _tensor_log_integral(model, gamma, panels)
        err = abs(cur - prev)
        if err <= _QUAD_REL_TOL:
            return cur, QuadratureInfo("gauss-legendre-dyadic", _QUAD_ORDER * panels,
                                       refinement, err)
        prev = cur
    raise QuadratureError(
        f"normalizing integral not converged after {_QUAD_MAX_REFINEMENTS} refinements; "
        f"last log value {prev:.12g}")


def normalizing_integral(model: FieldModel, gamma: float) -> float:
    """int_T P(f(t) > gamma) dt, in (0, mes(T)]."""
    log_value, _ = log_normalizing_integral(model, gamma)
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# Measure context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureContext:
    """Per-level state: tilt level, normalizing integral, tau sampler tables.

    Immutable after construction; safe to share across replicate workers.
    """

    b: float
    gamma: float
    log_norm_integral: float
    norm_integral: float
    quadrature: QuadratureInfo
    tau_method: str  # "uniform" | "rejection" | "grid"
    log_envelope: float | None = None
    grid_cum: np.ndarray | None = dc_field(default=None, repr=False)
    grid_origin: np.ndarray | None = dc_field(default=None, repr=False)
    grid_cell: np.ndarray | None = dc_field(default=None, repr=False)
    grid_shape: tuple | None = None


def _per_axis_resolution(d: int, budget: int, cap: int) -> int:
    return max(2, min(cap, int(budget ** (1.0 / d))))


def _certified_log_envelope(model: FieldModel, gamma: float) -> float:
    """Upper bound on sup_T P(f(t) > gamma) from a fine grid plus a
    Lipschitz-modulus inflation, valid for constant-std models."""
    d = model.dimension
    res = _per_axis_resolution(d, _ENVELOPE_GRID_BUDGET, 1025)
    axes = [np.linspace(model.domain.lower[i], model.domain.upper[i], res) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    sigma = model.constant_std
    z = (gamma - model.mean_at(pts)) / sigma
    z_min = float(z.min())
    # any domain point is within half a cell diagonal of a grid node
    half_diag = 0.5 * math.sqrt(float(np.sum((model.domain.side_lengths / (res - 1)) ** 2)))
    z_min -= model.mean_lipschitz * half_diag / sigma
    return float(log_gaussian_tail(z_min))


def _grid_sampler_tables(model: FieldModel, gamma: float):
    d = model.dimension
    res = _per_axis_resolution(d, _GRID_SAMPLER_BUDGET, 512)
    cell = model.domain.side_lengths / res
    axes = [model.domain.lower[i] + cell[i] * (np.arange(res) + 0.5) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    logp = log_marginal_tail(model, centers, gamma)
    logp -= logsumexp(logp)
    cum = np.cumsum(np.exp(logp))
    cum[-1] = 1.0
    origin = centers - 0.5 * cell
    return cum, origin, cell, (res,) * d


def measure_context(model: FieldModel, b: float, tau_sampler: str = "auto") -> MeasureContext:
    """Build the per-level sampling context for level ``b``.

    ``tau_sampler`` chooses how the location tau is drawn: "uniform" is exact
    when mean and std are constant, "rejection" uses a certified envelope
    (requires constant std and a Lipschitz bound on the mean), and "grid"
    falls back to inverse-CDF sampling over a fine cell grid with uniform
    jitter inside the chosen cell.  "auto" picks the best applicable method.
    """
    gamma = gamma_level(b)
    log_ig, info = log_normalizing_integral(model, gamma)

    constant = model.constant_mean is not None and model.constant_std is not None
    certifiable = (model.constant_std is not None and model.mean_lipschitz is not None)
    if tau_sampler == "auto":
        tau_sampler = "uniform" if constant else ("rejection" if certifiable else "grid")
    if tau_sampler == "uniform" and not constant:
        raise ConfigurationError("uniform tau sampling requires constant mean and std")
    if tau_sampler == "rejection" and constant:
        tau_sampler = "uniform"

    log_env = None
    grid_cum = grid_origin = grid_cell = grid_shape = None
    if tau_sampler == "rejection":
        if not certifiable:
            raise ConfigurationError(
                "rejection tau sampling needs constant std and a mean Lipschitz bound; "
                "use tau_sampler='grid'")
        log_env = _certified_log_envelope(model, gamma)
    elif tau_sampler == "grid":
        grid_cum, grid_origin, grid_cell, grid_shape = _grid_sampler_tables(model, gamma)
    elif tau_sampler != "uniform":
        raise ConfigurationError(f"unknown tau sampler {tau_sampler!r}")

    return MeasureContext(
        b=float(b), gamma=gamma, log_norm_integral=log_ig,
        norm_integral=math.exp(log_ig), quadrature=info, tau_method=tau_sampler,
        log_envelope=log_env, grid_cum=grid_cum, grid_origin=grid_origin,
        grid_cell=grid_cell, grid_shape=grid_shape)


def location_log_density(model: FieldModel, ctx: MeasureContext, points):
    """log of the tau density P(f(t) > gamma) / I_gamma at the given points."""
    return log_marginal_tail(model, points, ctx.gamma) - ctx.log_norm_integral


# ---------------------------------------------------------------------------
# Sampling tau
# ---------------------------------------------------------------------------

def _sample_tau_rejection(model: FieldModel, ctx: MeasureContext, rng, size: int) -> np.ndarray:
    out = np.empty((size, model.dimension))
    filled = 0
    proposals = 0
    chunk = max(16, min(4096, 4 * size))
    while filled < size:
        cand = model.domain.sample_uniform(rng, chunk)
        log_accept = log_marginal_tail(model, cand, ctx.gamma) - ctx.log_envelope
        keep = np.log(rng.random(chunk)) <= log_accept
        accepted = cand[keep]
        take = min(size - filled, accepted.shape[0])
        out[filled:filled + take] = accepted[:take]
        filled += take
        proposals += chunk
        if filled == 0 and proposals >= _REJECTION_WARMUP:
            raise SamplerInefficiencyError(
                "tau rejection acceptance rate below 1e-6 after warm-up; "
                "switch to tau_sampler='grid'")
    return out


def _sample_tau_grid(ctx: MeasureContext, rng, size: int) -> np.ndarray:
    u = rng.random(size)
    idx = np.searchsorted(ctx.grid_cum, u, side="right")
    idx = np.minimum(idx, ctx.grid_cum.size - 1)
    jitter = rng.random((size, ctx.grid_origin.shape[1]))
    return ctx.grid_origin[idx] + jitter * ctx.grid_cell


def sample_tau(model: FieldModel, ctx: MeasureContext, rng, size: int | None = None):
    """Draw locations from the density proportional to P(f(t) > gamma) on T.

    Returns a (d,) point when ``size`` is None, else a (size, d) array.
    """
    n = 1 if size is None else int(size)
    if ctx.tau_method == "uniform":
        draws = model.domain.sample_uniform(rng, n)
    elif ctx.tau_method == "rejection":
        draws = _sample_tau_rejection(model, ctx, rng, n)
    else:
        draws = _sample_tau_grid(ctx, rng, n)
    return draws[0] if size is None else draws


# ---------------------------------------------------------------------------
# Truncated Gaussian tail sampling
# ---------------------------------------------------------------------------

def _truncated_std_normal(rng, c: np.ndarray) -> np.ndarray:
    """Standard normals, entry i conditioned on exceeding c[i]; uniformly
    efficient in c.

    Thresholds below 1 use plain rejection (acceptance P(Z > c) >= P(Z > 1)
    ~ 0.159), the others shifted-exponential rejection with the optimal rate.
    """
    out = np.empty(c.shape)
    low = c < 1.0
    pending = np.flatnonzero(low)
    while pending.size:
        z = rng.standard_normal(pending.size)
        ok = z > c[pending]
        out[pending[ok]] = z[ok]
        pending = pending[~ok]
    pending = np.flatnonzero(~low)
    lam = 0.5 * (c + np.sqrt(c * c + 4.0))
    while pending.size:
        lam_p = lam[pending]
        x = c[pending] + rng.exponential(size=pending.size) / lam_p
        ok = rng.random(pending.size) <= np.exp(-0.5 * (x - lam_p) ** 2)
        out[pending[ok]] = x[ok]
        pending = pending[~ok]
    return out


def sample_truncated_tail(mu0, sigma0, gamma: float, rng, size: int | None = None):
    """Draw from N(mu0, sigma0^2) conditioned to exceed gamma.

    ``mu0`` and ``sigma0`` are scalars or arrays of shape (size,), one law per
    draw, so a block of replicates draws every f(tau) in one call.  Returns a
    scalar when ``size`` is None (a batch of one), else a (size,) array.
    Uses plain rejection below standardized threshold 1 and
    shifted-exponential rejection above it; every output is strictly greater
    than gamma, for standardized thresholds up to ~40.
    """
    n = 1 if size is None else int(size)
    mu = np.asarray(mu0, dtype=float)
    sigma = np.asarray(sigma0, dtype=float)
    if (sigma <= 0.0).any():
        raise ValueError("sigma0 must be positive")
    c = np.empty(n)
    c[...] = (gamma - mu) / sigma
    out = mu + sigma * _truncated_std_normal(rng, c)
    bad = np.flatnonzero(out <= gamma)
    while bad.size:
        mu_bad, sigma_bad = (np.broadcast_to(x, (n,))[bad] for x in (mu, sigma))
        out[bad] = mu_bad + sigma_bad * _truncated_std_normal(rng, c[bad])
        bad = bad[out[bad] <= gamma]
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Importance weight
# ---------------------------------------------------------------------------

def likelihood_ratio_weight(ctx: MeasureContext, mes_estimate: float) -> float:
    """Importance weight I_gamma / mes_estimate (original over tilted law)."""
    if not np.isfinite(mes_estimate) or mes_estimate <= 0.0:
        raise InvalidWeightError(f"volume estimate must be positive, got {mes_estimate}")
    return math.exp(ctx.log_norm_integral - math.log(mes_estimate))
