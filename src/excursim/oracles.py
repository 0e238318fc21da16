"""Closed-form ground truths and brute-force baselines.

These are the independent references the adaptive estimator is validated
against: the exact tail probability of the cosine process, the Rice tail of
a smooth stationary process on an interval, exact expected
excursion volumes via quadrature, an exact path simulator for the cosine
process, a deterministic grid-maximum tail oracle, and a plain fixed-grid
Monte Carlo baseline whose discretization bias the adaptive scheme avoids.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

from .engine import EstimateReport
from .errors import ConfigurationError, InsufficientReplicatesError
from .field import FieldModel, cov_matrix, factor_psd, gaussian_tail, log_gaussian_tail
from .measure import log_normalizing_integral

__all__ = [
    "cosine_truth",
    "log_rice_tail",
    "expected_excursion_measure",
    "crude_grid_mc",
    "CosinePath",
    "cosine_exact_simulator",
    "cosine_sup_batch",
    "cosine_grid_tail",
]

_GRID_CAP = 4096
_MC_CHUNK = 1 << 16


def cosine_truth(b: float) -> float:
    """Exact P(sup over [0, 3/4] of X cos t + Y sin t > b)
    = 1 - Phi(b) + (3 / 8 pi) exp(-b^2 / 2)."""
    return float(gaussian_tail(b)) + 3.0 / (8.0 * math.pi) * math.exp(-0.5 * b * b)


def log_rice_tail(b: float, length: float, lambda2: float) -> float:
    """log of the Rice tail P(Z > b) + length sqrt(lambda2) / (2 pi) exp(-b^2 / 2).

    For a smooth stationary unit-variance process on an interval of the given
    length whose correlation has second spectral moment lambda2 (-r''(0)),
    this is P(f(0) > b) plus the expected number of upcrossings of b, an
    upper bound on P(sup f > b) that is exact up to a term of relative order
    exp(-c b^2).  It is exact for the cosine process on [0, 3/4] (length
    3/4, lambda2 = 1), whose paths upcross at most once there.  Both terms
    are summed in log space, so the result stays finite where they underflow.
    """
    if not (length > 0.0 and lambda2 > 0.0):
        raise ValueError("need length > 0 and lambda2 > 0")
    log_crossings = (math.log(length) + 0.5 * math.log(lambda2) - math.log(2.0 * math.pi)
                     - 0.5 * b * b)
    return float(np.logaddexp(log_gaussian_tail(b), log_crossings))


def expected_excursion_measure(model: FieldModel, b: float) -> float:
    """E mes({t : f(t) > b}) = int_T P(f(t) > b) dt, by exact quadrature.

    The exp of ``log_normalizing_integral(model, b)``, whose log stays
    finite at levels (b ~ 38 and above) where this linear value underflows.
    """
    return math.exp(log_normalizing_integral(model, b)[0])


def crude_grid_mc(model: FieldModel, b: float, grid_per_axis: int, n: int,
                  rng, workers: int | None = None) -> EstimateReport:
    """Plain Monte Carlo estimate of P(max over a fixed grid of f > b).

    The grid maximum is a lower bound of the supremum, so this baseline is
    biased low, increasingly so as b grows at fixed grid size; it exists to
    make that bias observable next to the adaptive estimator.
    """
    d = model.dimension
    if grid_per_axis < 1:
        raise ConfigurationError("grid_per_axis must be at least 1")
    if grid_per_axis ** d > _GRID_CAP:
        raise ConfigurationError(
            f"grid of {grid_per_axis}^{d} points exceeds the desk-scale cap {_GRID_CAP}")
    if n < 2:
        raise InsufficientReplicatesError("need at least two Monte Carlo draws")

    axes = [np.linspace(model.domain.lower[i], model.domain.upper[i], grid_per_axis)
            for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    mean = model.mean_at(pts)
    factor, _ = factor_psd(cov_matrix(model, pts))

    start = time.perf_counter()
    hits = 0
    remaining = n
    chunk_cap = max(1, _MC_CHUNK * 32 // pts.shape[0])
    while remaining > 0:
        chunk = min(remaining, chunk_cap)
        z = rng.standard_normal((chunk, factor.shape[1]))
        vals = mean + z @ factor.T
        hits += int(np.count_nonzero(vals.max(axis=1) > b))
        remaining -= chunk
    p = hits / n
    std_err = math.sqrt(p * (1.0 - p) / n)
    return EstimateReport(
        target="grid_tail_mc", estimate=p, std_err=std_err, n=n, b=float(b),
        m=pts.shape[0], log_estimate=math.log(p) if p > 0 else -math.inf,
        wall_time_s=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Exact cosine-process paths
# ---------------------------------------------------------------------------

def cosine_sup_batch(x: np.ndarray, y: np.ndarray, lo: float = 0.0,
                     hi: float = 0.75) -> np.ndarray:
    """Exact sup over [lo, hi] of x cos t + y sin t, vectorized over paths.

    The path is R cos(t - phi) with R = hypot(x, y), phi = atan2(y, x); the
    supremum is R when some global maximizer phi + 2 pi k lies in the
    interval, else the larger endpoint value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    amp = np.hypot(x, y)
    phi = np.arctan2(y, x)
    two_pi = 2.0 * math.pi
    shifted = phi + two_pi * np.ceil((lo - phi) / two_pi)
    inside = shifted <= hi
    at_lo = x * math.cos(lo) + y * math.sin(lo)
    at_hi = x * math.cos(hi) + y * math.sin(hi)
    return np.where(inside, amp, np.maximum(at_lo, at_hi))


class CosinePath:
    """One exact path f(t) = X cos t + Y sin t with closed-form suprema."""

    def __init__(self, x: float, y: float):
        self.x = float(x)
        self.y = float(y)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.x * np.cos(t) + self.y * np.sin(t)

    def sup(self, lo: float = 0.0, hi: float = 0.75) -> float:
        if not lo < hi:
            raise ValueError("need lo < hi")
        return float(cosine_sup_batch(self.x, self.y, lo, hi))


def cosine_exact_simulator(rng) -> CosinePath:
    """Draw one exact cosine-process path (independent standard normal X, Y)."""
    x, y = rng.standard_normal(2)
    return CosinePath(x, y)


# ---------------------------------------------------------------------------
# Deterministic grid-maximum tail for the cosine process
# ---------------------------------------------------------------------------

def cosine_grid_tail(b: float, grid_points) -> float:
    """Exact P(max_i X cos t_i + Y sin t_i > b) by polar quadrature.

    With (X, Y) = R (cos phi, sin phi) and P(R > r) = exp(-r^2/2), the event
    is R c(phi) > b with c(phi) = max_i cos(phi - t_i), so the probability is
    the average over phi of exp(-b^2 / (2 c(phi)^2)) on {c > 0}.  The
    integrand is smooth between the angular midpoints of adjacent grid points
    and the points where c crosses zero, so each piece is integrated
    separately.
    """
    pts = np.sort(np.atleast_1d(np.asarray(grid_points, dtype=float)))
    if pts.size < 1:
        raise ValueError("need at least one grid point")
    two_pi = 2.0 * math.pi

    def integrand(phi):
        c = np.max(np.cos(phi - pts))
        if c <= 0.0:
            return 0.0
        return math.exp(-b * b / (2.0 * c * c))

    breaks = set()
    for t in pts:
        breaks.add((t + math.pi / 2.0) % two_pi)
        breaks.add((t - math.pi / 2.0) % two_pi)
    for left, right in zip(pts[:-1], pts[1:]):
        breaks.add(((left + right) / 2.0) % two_pi)
    edges = np.concatenate([[0.0], np.sort(np.array(list(breaks))), [two_pi]])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo + 1e-15:
            piece, _ = quad(integrand, lo, hi, limit=200)
            total += piece
    return total / two_pi
