"""Gaussian random field models on compact boxes with exact finite-dimensional sampling.

A :class:`FieldModel` bundles a box domain, mean and standard-deviation
functions, a correlation kernel, and the local regularity parameters of the
kernel.  All sampling is exact at finite point sets: each covariance is
factored once, by Cholesky when it is positive definite and otherwise by a
pivoted Cholesky that returns its numerical rank, and the Gaussian tail
arithmetic is done through the complementary error function so that
levels around ``b = 8`` (tail mass ~1e-16) keep full relative accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpstrf
from scipy.spatial.distance import cdist
from scipy.special import log_ndtr, ndtr

from .errors import ModelEvaluationError, SingularModelError

__all__ = [
    "BoxDomain",
    "RegularityParams",
    "FieldModel",
    "LinearMean",
    "SquaredExponential",
    "Exponential",
    "PowerExponential",
    "CosineProcess",
    "KERNELS",
    "gaussian_tail",
    "log_gaussian_tail",
    "marginal_tail",
    "log_marginal_tail",
    "cov_matrix",
    "factor_psd",
    "sample_joint",
    "conditional_moments",
    "sample_conditional",
]


# ---------------------------------------------------------------------------
# Gaussian tail arithmetic
# ---------------------------------------------------------------------------

def gaussian_tail(x):
    """Upper tail P(Z > x) of the standard normal, computed via erfc.

    Accurate to full double precision wherever the result is representable;
    for very large ``x`` (beyond ~38) the linear value underflows to zero and
    :func:`log_gaussian_tail` should be used instead.
    """
    return ndtr(-np.asarray(x, dtype=float))


def log_gaussian_tail(x):
    """log P(Z > x) for standard normal Z, stable for large ``x``."""
    return log_ndtr(-np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

class BoxDomain:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("domain corners must be finite")
        if not np.all(lower < upper):
            raise ValueError("need lower[i] < upper[i] on every axis")
        self.lower = lower
        self.upper = upper
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def side_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def measure(self) -> float:
        """Lebesgue measure of the box."""
        return float(np.prod(self.side_lengths))

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points inside the closed box."""
        pts = as_points(points, self.dimension)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def sample_uniform(self, rng, size=None):
        """Uniform draws on the box: shape (d,) or (size, d)."""
        shape = self.dimension if size is None else (size, self.dimension)
        return self.lower + self.side_lengths * rng.random(shape)

    def __repr__(self):
        return f"BoxDomain(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


def as_points(points, dimension: int) -> np.ndarray:
    """Coerce input to an (n, d) float array; a single point may be scalar or 1-d."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts[None, None]
    elif pts.ndim == 1:
        if dimension == 1 and pts.size != 1:
            pts = pts[:, None]
        else:
            pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValueError(f"expected points of dimension {dimension}, got shape {pts.shape}")
    return pts


# ---------------------------------------------------------------------------
# Regularity parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityParams:
    """Local regularity of the correlation and standard-deviation functions.

    ``alpha1`` and ``c1`` describe the correlation decay near the diagonal,
    1 - r(s, t) ~ c1 * |s - t|**alpha1, and (beta0, beta1) bound the increments
    of r.  ``constant_std`` distinguishes unit/constant standard deviation from
    a profile with a unique maximum, in which case ``alpha2``/``c2`` describe
    the decay of std near its argmax ``std_argmax``.
    """

    alpha1: float
    c1: float
    beta0: float
    beta1: float
    constant_std: bool = True
    alpha2: float | None = None
    c2: float | None = None
    std_argmax: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha1 <= 2.0:
            raise ValueError("alpha1 must lie in (0, 2]")
        if self.c1 <= 0.0:
            raise ValueError("c1 must be positive")
        if self.beta0 < 0.0 or self.beta1 <= 0.0:
            raise ValueError("need beta0 >= 0 and beta1 > 0")
        if self.beta0 + self.beta1 < self.alpha1:
            raise ValueError("need beta0 + beta1 >= alpha1")
        if not self.constant_std:
            if self.alpha2 is None or self.c2 is None:
                raise ValueError("non-constant std requires alpha2 and c2")
            if not 0.0 < self.alpha2 <= 1.0:
                raise ValueError("alpha2 must lie in (0, 1]")
            if self.c2 <= 0.0:
                raise ValueError("c2 must be positive")

    @property
    def alpha_min(self) -> float:
        """min(alpha1, alpha2), with alpha2 treated as infinite for constant std."""
        if self.constant_std or self.alpha2 is None:
            return self.alpha1
        return min(self.alpha1, self.alpha2)


# ---------------------------------------------------------------------------
# Correlation kernels
# ---------------------------------------------------------------------------

def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b)


class PowerExponential:
    """Stationary correlation r(s, t) = exp(-(|s - t| / ell)**shape)."""

    def __init__(self, shape: float, ell: float = 1.0):
        if not 0.0 < shape <= 2.0:
            raise ValueError("shape must lie in (0, 2]")
        if ell <= 0.0:
            raise ValueError("ell must be positive")
        self.shape = float(shape)
        self.ell = float(ell)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        h = _pairwise_dist(a, b) / self.ell
        if self.shape == 2.0:
            return np.exp(-(h * h))
        if self.shape == 1.0:
            return np.exp(-h)
        return np.exp(-np.power(h, self.shape))

    @property
    def regularity(self) -> RegularityParams:
        a = self.shape
        # 1 - r ~ (|h|/ell)^a; increments admit beta0 = a-1, beta1 = 1 when
        # a >= 1 and beta0 = 0, beta1 = a otherwise.
        if a >= 1.0:
            beta0, beta1 = a - 1.0, 1.0
        else:
            beta0, beta1 = 0.0, a
        return RegularityParams(alpha1=a, c1=self.ell ** (-a), beta0=beta0, beta1=beta1)

    def __repr__(self):
        return f"PowerExponential(shape={self.shape}, ell={self.ell})"


class SquaredExponential(PowerExponential):
    """r(s, t) = exp(-|s - t|**2 / ell**2)."""

    def __init__(self, ell: float = 1.0):
        super().__init__(2.0, ell)

    def __repr__(self):
        return f"SquaredExponential(ell={self.ell})"


class Exponential(PowerExponential):
    """r(s, t) = exp(-|s - t| / ell)."""

    def __init__(self, ell: float = 1.0):
        super().__init__(1.0, ell)

    def __repr__(self):
        return f"Exponential(ell={self.ell})"


class CosineProcess:
    """Rank-two 1-d correlation r(s, t) = cos(s - t).

    The associated field is X cos(t) + Y sin(t) with independent standard
    normal X, Y; any finite-dimensional covariance matrix has rank <= 2.
    """

    dimension = 1

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.cos(a[:, 0][:, None] - b[:, 0][None, :])

    @property
    def regularity(self) -> RegularityParams:
        # 1 - cos(h) ~ h^2 / 2
        return RegularityParams(alpha1=2.0, c1=0.5, beta0=1.0, beta1=1.0)

    def __repr__(self):
        return "CosineProcess()"


KERNELS = {
    "sqexp": SquaredExponential,
    "exponential": Exponential,
    "powerexp": PowerExponential,
    "cosine": CosineProcess,
}


# ---------------------------------------------------------------------------
# Mean functions
# ---------------------------------------------------------------------------

class LinearMean:
    """mu(t) = intercept + coeffs . t, with its exact Lipschitz constant."""

    def __init__(self, coeffs, intercept: float = 0.0):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        self.intercept = float(intercept)
        self.lipschitz = float(np.linalg.norm(self.coeffs))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.intercept + points @ self.coeffs

    def __repr__(self):
        return f"LinearMean(coeffs={self.coeffs.tolist()}, intercept={self.intercept})"


# ---------------------------------------------------------------------------
# Field model
# ---------------------------------------------------------------------------

class FieldModel:
    """Gaussian field on a box: mean, std, correlation kernel, regularity.

    ``mean`` and ``std`` may be scalars (recorded as constants, enabling exact
    fast paths downstream) or callables mapping an (n, d) array of points to an
    (n,) array.  Model functions must be total on R^d: design points may fall
    outside the domain and their field values are still drawn jointly (their
    excursion indicators are zeroed downstream).

    Instances are immutable after construction and safe to share across
    concurrently running replicate workers; all sampling goes through explicit
    RNG handles.
    """

    def __init__(self, domain: BoxDomain, kernel, mean=0.0, std=1.0,
                 mean_lipschitz: float | None = None,
                 regularity: RegularityParams | None = None):
        self.domain = domain
        self.kernel = kernel
        kernel_dim = getattr(kernel, "dimension", None)
        if kernel_dim is not None and kernel_dim != domain.dimension:
            raise ValueError(f"kernel requires dimension {kernel_dim}, domain has {domain.dimension}")

        self.constant_mean = float(mean) if np.isscalar(mean) else None
        self._mean = mean
        self.constant_std = float(std) if np.isscalar(std) else None
        self._std = std
        if self.constant_std is not None and self.constant_std <= 0.0:
            raise ValueError("std must be strictly positive")

        if mean_lipschitz is None and self.constant_mean is None:
            mean_lipschitz = getattr(mean, "lipschitz", None)
        if self.constant_mean is not None:
            mean_lipschitz = 0.0
        self.mean_lipschitz = mean_lipschitz

        if regularity is None:
            regularity = getattr(kernel, "regularity", None)
        self.regularity = regularity

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def mean_at(self, points) -> np.ndarray:
        pts = as_points(points, self.dimension)
        if self.constant_mean is not None:
            return np.full(pts.shape[0], self.constant_mean)
        vals = np.asarray(self._mean(pts), dtype=float)
        _check_finite(vals, "mean")
        return vals

    def std_at(self, points) -> np.ndarray:
        pts = as_points(points, self.dimension)
        if self.constant_std is not None:
            return np.full(pts.shape[0], self.constant_std)
        vals = np.asarray(self._std(pts), dtype=float)
        _check_finite(vals, "std")
        if np.any(vals <= 0.0):
            raise ModelEvaluationError("std function returned a non-positive value")
        return vals

    def corr(self, a, b) -> np.ndarray:
        pa = as_points(a, self.dimension)
        pb = as_points(b, self.dimension)
        vals = np.asarray(self.kernel(pa, pb), dtype=float)
        _check_finite(vals, "correlation")
        return vals

    def __repr__(self):
        return (f"FieldModel(domain={self.domain!r}, kernel={self.kernel!r}, "
                f"mean={self.constant_mean if self.constant_mean is not None else self._mean!r}, "
                f"std={self.constant_std if self.constant_std is not None else self._std!r})")


def _check_finite(values: np.ndarray, what: str):
    if not np.all(np.isfinite(values)):
        raise ModelEvaluationError(f"{what} function returned a non-finite value")


# ---------------------------------------------------------------------------
# Covariance assembly and factorization
# ---------------------------------------------------------------------------

def cov_matrix(model: FieldModel, points) -> np.ndarray:
    """Covariance matrix sigma(t_i) sigma(t_j) r(t_i, t_j) at the given points."""
    pts = as_points(points, model.dimension)
    if pts.shape[0] == 0:
        raise ValueError("need at least one point")
    sig = model.std_at(pts)
    cov = model.corr(pts, pts) * np.outer(sig, sig)
    # exact symmetry even for user-supplied kernels with asymmetric rounding
    return 0.5 * (cov + cov.T)


# A residual diagonal below -_INDEFINITE_TOL * trace/n marks a matrix that is
# indefinite beyond rounding.
_INDEFINITE_TOL = 1e-6


def factor_psd(matrix) -> tuple[np.ndarray, float]:
    """Factor F of shape (n, r) with F @ F.T = matrix; returns (F, 0.0).

    A positive definite matrix gets its lower Cholesky factor (r = n).  When
    that fails, LAPACK's pivoted Cholesky stops at the numerical rank r (its
    default tolerance n * eps * max diagonal), and the rows of its factor are
    put back in the original order.  Rows whose covariance is exactly zero
    are never pivoted, so their factor rows are exactly zero.  The second
    return value, the ridge added to the diagonal, is always 0.0; it is kept
    for callers that unpack (factor, ridge).

    A residual diagonal below -1e-6 * trace/n raises
    :class:`SingularModelError`: the matrix is indefinite beyond rounding.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must have finite entries")
    lower, info = dpotrf(a, lower=1)
    if info == 0:
        return lower, 0.0
    pivoted, piv, rank, _ = dpstrf(a, lower=1)
    factor = np.empty((a.shape[0], rank))
    factor[piv - 1] = np.tril(pivoted[:, :rank])
    residual = np.diag(a) - np.einsum("ij,ij->i", factor, factor)
    floor = -_INDEFINITE_TOL * float(np.trace(a)) / a.shape[0]
    if residual.min() < floor:
        raise SingularModelError(
            f"covariance of size n={a.shape[0]} is indefinite: residual diagonal "
            f"{residual.min():.3e} after rank {rank} is below {floor:.3e}")
    return factor, 0.0


def sample_joint(model: FieldModel, points, rng) -> np.ndarray:
    """One exact draw of (f(t_1), ..., f(t_n)) under the model law."""
    pts = as_points(points, model.dimension)
    mean = model.mean_at(pts)
    factor, _ = factor_psd(cov_matrix(model, pts))
    return mean + factor @ rng.standard_normal(factor.shape[1])


# ---------------------------------------------------------------------------
# Conditioning on a single observation
# ---------------------------------------------------------------------------

def conditional_moments(model: FieldModel, tau, value_at_tau: float, points):
    """Mean and covariance of the field at ``points`` given f(tau) = value.

    mean_i = mu(t_i) + (sigma(t_i)/sigma(tau)) r(t_i, tau) (v - mu(tau))
    cov_ij = sigma(t_i) sigma(t_j) (r(t_i, t_j) - r(t_i, tau) r(t_j, tau))

    Rows for points exactly equal to tau are pinned: mean = value, cov = 0.
    Returns (mean, cov, tau_mask).
    """
    tau = as_points(tau, model.dimension)
    pts = as_points(points, model.dimension)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    sig = model.std_at(pts)
    sig_tau = float(model.std_at(tau)[0])
    mu_tau = float(model.mean_at(tau)[0])
    # one kernel evaluation: the last column is r(t_i, tau)
    corr = model.corr(pts, np.concatenate([pts, tau]))
    r_tau = corr[:, n]
    mean = model.mean_at(pts) + (sig / sig_tau) * r_tau * (value_at_tau - mu_tau)
    proj = sig * r_tau
    cov = corr[:, :n] * np.outer(sig, sig) - np.outer(proj, proj)
    cov = 0.5 * (cov + cov.T)
    mask = np.all(pts == tau, axis=1)
    if mask.any():
        mean[mask] = value_at_tau
        cov[mask, :] = 0.0
        cov[:, mask] = 0.0
    return mean, cov, mask


def _conditional_draw(model: FieldModel, tau, value_at_tau: float, points, rng):
    """Draw from the conditional law; returns (values, rank of the covariance)."""
    mean, cov, _ = conditional_moments(model, tau, value_at_tau, points)
    factor, _ = factor_psd(cov)
    return mean + factor @ rng.standard_normal(factor.shape[1]), factor.shape[1]


def sample_conditional(model: FieldModel, tau, value_at_tau: float, points, rng) -> np.ndarray:
    """Exact draw of the field at ``points`` given f(tau) = value_at_tau.

    Points bit-equal to tau reproduce ``value_at_tau`` exactly.
    """
    values, _ = _conditional_draw(model, tau, value_at_tau, points, rng)
    return values


# ---------------------------------------------------------------------------
# Marginal tails
# ---------------------------------------------------------------------------

def marginal_tail(model: FieldModel, points, level: float):
    """P(f(t) > level) for each point t; scalar in, scalar out."""
    return np.exp(log_marginal_tail(model, points, level))


def log_marginal_tail(model: FieldModel, points, level: float):
    """log P(f(t) > level), stable for extreme levels."""
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0 or (pts.ndim == 1 and (model.dimension > 1 or pts.size == 1))
    pts2 = as_points(pts, model.dimension)
    z = (level - model.mean_at(pts2)) / model.std_at(pts2)
    out = log_gaussian_tail(z)
    return float(out[0]) if scalar else out
