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

from .errors import InvalidLevelError, QuadratureError
from .field import FieldModel, log_gaussian_tail, log_marginal_tail

__all__ = [
    "gamma_level",
    "QuadratureInfo",
    "log_normalizing_integral",
    "MeasureContext",
    "measure_context",
    "location_log_density",
    "sample_tau",
    "proposal_ratio",
    "sample_truncated_tail",
]

_QUAD_REL_TOL = 1e-8
_QUAD_MAX_REFINEMENTS = 12
_QUAD_ORDER = 16
_QUAD_MAX_POINTS = 2 ** 22
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_QUAD_ORDER)
_PROPOSAL_CELLS = 2 ** 12  # tau proposal cells: 4096 in 1-d, 64^2 in 2-d, 16^3 in 3-d


def gamma_level(b: float) -> float:
    """Tilt level gamma = b - 1/b; requires b > 1 so that gamma > 0."""
    if not np.isfinite(b) or b <= 1.0:
        raise InvalidLevelError(
            f"level b={b} is outside the rare-event regime (need b > 1); "
            "use a crude Monte Carlo baseline at such levels")
    return b - 1.0 / b


def _logsumexp(values: np.ndarray) -> float:
    """log sum exp(values) of a 1-d array, bit-equal to scipy 1.17's
    ``logsumexp``: the count of terms equal to the largest, top, is kept apart
    and the others are shifted by top; a non-finite top is the result."""
    top = values.max()
    if not np.isfinite(top):
        return float(top)
    ties = values == top
    count = np.count_nonzero(ties)
    rest = np.exp(np.where(ties, -np.inf, values) - top).sum()
    return float(np.log1p(rest / count) + np.log(count) + top)


def _constant_marginals(model: FieldModel) -> bool:
    return model.constant_mean is not None and model.constant_std is not None


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
    return _logsumexp(logw + log_marginal_tail(model, pts, gamma))


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
    if _constant_marginals(model):
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


# ---------------------------------------------------------------------------
# Measure context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureContext:
    """Per-level state: tilt level, normalizing integral, tau proposal cells.

    The proposal has ``grid_shape`` cells in C order; cell c has mass
    exp(cell_log_mass[c]) and corner ``cell_origin[c]``, all cells share the
    side lengths ``cell_size``, and ``cell_cum`` holds the cumulative masses.
    Immutable after construction; safe to share across replicate workers.
    """

    b: float
    gamma: float
    log_norm_integral: float
    quadrature: QuadratureInfo
    grid_shape: tuple
    cell_log_mass: np.ndarray = dc_field(repr=False)
    cell_cum: np.ndarray = dc_field(repr=False)
    cell_origin: np.ndarray = dc_field(repr=False)
    cell_size: np.ndarray = dc_field(repr=False)


def _grid_sampler_tables(model: FieldModel, gamma: float, budget: int) -> dict:
    """The proposal fields of a context: a grid of about ``budget`` cells over
    the domain, masses proportional to the marginal tail at each cell centre;
    a budget of 1 gives the one-cell, uniform proposal."""
    d = model.dimension
    res = max(1, int(round(budget ** (1.0 / d))))
    cell = model.domain.side_lengths / res
    axes = [model.domain.lower[i] + cell[i] * (np.arange(res) + 0.5) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    log_mass = log_marginal_tail(model, centers, gamma)
    log_mass -= _logsumexp(log_mass)
    cum = np.cumsum(np.exp(log_mass))
    cum[-1] = 1.0
    return dict(grid_shape=(res,) * d, cell_log_mass=log_mass, cell_cum=cum,
                cell_origin=centers - 0.5 * cell, cell_size=cell)


def measure_context(model: FieldModel, b: float) -> MeasureContext:
    """Build the per-level sampling context for level ``b``.

    Constant mean and std give one cell, where the proposal is uniform and
    equals the tau density exactly; otherwise the proposal has 2^12 cells.
    """
    gamma = gamma_level(b)
    log_ig, info = log_normalizing_integral(model, gamma)
    budget = 1 if _constant_marginals(model) else _PROPOSAL_CELLS
    return MeasureContext(b=float(b), gamma=gamma, log_norm_integral=log_ig, quadrature=info,
                          **_grid_sampler_tables(model, gamma, budget))


def location_log_density(model: FieldModel, ctx: MeasureContext, points):
    """log of the tau density P(f(t) > gamma) / I_gamma at the given points."""
    return log_marginal_tail(model, points, ctx.gamma) - ctx.log_norm_integral


# ---------------------------------------------------------------------------
# Sampling tau
# ---------------------------------------------------------------------------

def sample_tau(model: FieldModel, ctx: MeasureContext, rng, size: int) -> np.ndarray:
    """Draw ``size`` locations (size, d) from the proposal: a cell by its
    mass, then a uniform point inside it.  One cell draws no cell index, so
    it consumes the stream as ``domain.sample_uniform`` does.
    """
    if ctx.cell_cum.size == 1:
        return model.domain.sample_uniform(rng, size)
    idx = np.searchsorted(ctx.cell_cum, rng.random(size), side="right")
    idx = np.minimum(idx, ctx.cell_cum.size - 1)
    return ctx.cell_origin[idx] + rng.random((size, model.dimension)) * ctx.cell_size


def proposal_ratio(model: FieldModel, ctx: MeasureContext, points):
    """Ratio r = g / pi of the proposal density to the tau density at points
    (..., d); computed in log space, shape (...).

    With r in the volume estimate, mes_r = (1/m) sum_i I(f_i > gamma, t_i in T)
    r_i / k_i, the weight I_gamma / mes_r is exact for any proposal g.  It is
    the scalar 1.0 when mean and std are constant, where g = pi exactly.
    Points outside the domain take the ratio of the nearest domain point;
    their indicators vanish anyway.
    """
    if _constant_marginals(model):
        return 1.0
    domain = model.domain
    pts = np.clip(np.reshape(points, (-1, model.dimension)), domain.lower, domain.upper)
    shape = np.array(ctx.grid_shape)
    axis_idx = np.minimum(((pts - domain.lower) / ctx.cell_size).astype(np.intp), shape - 1)
    cell = np.ravel_multi_index(axis_idx.T, ctx.grid_shape)
    log_g = ctx.cell_log_mass[cell] - math.log(float(np.prod(ctx.cell_size)))
    log_r = log_g - location_log_density(model, ctx, pts)
    return np.exp(log_r).reshape(np.shape(points)[:-1])


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


def sample_truncated_tail(mu0, sigma0, gamma: float, rng, size: int) -> np.ndarray:
    """Draw ``size`` values, a (size,) array, from N(mu0, sigma0^2)
    conditioned to exceed gamma.

    ``mu0`` and ``sigma0`` are scalars or arrays of shape (size,), one law per
    draw, so a block of replicates draws every f(tau) in one call.
    Uses plain rejection below standardized threshold 1 and
    shifted-exponential rejection above it; every output is strictly greater
    than gamma, for standardized thresholds up to ~40.
    """
    mu = np.asarray(mu0, dtype=float)
    sigma = np.asarray(sigma0, dtype=float)
    if (sigma <= 0.0).any():
        raise ValueError("sigma0 must be positive")
    c = np.empty(size)
    c[...] = (gamma - mu) / sigma
    if not np.isfinite(c).all():
        raise ValueError("the standardized threshold (gamma - mu0) / sigma0 must be finite")
    out = mu + sigma * _truncated_std_normal(rng, c)
    bad = np.flatnonzero(out <= gamma)
    while bad.size:
        mu_bad, sigma_bad = (np.broadcast_to(x, (size,))[bad] for x in (mu, sigma))
        out[bad] = mu_bad + sigma_bad * _truncated_std_normal(rng, c[bad])
        bad = bad[out[bad] <= gamma]
    return out
