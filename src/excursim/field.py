"""Gaussian random field models on compact boxes with exact finite-dimensional sampling.

A :class:`FieldModel` bundles a box domain, mean and standard-deviation
functions, a correlation kernel, and the local regularity parameters of the
kernel.  All sampling is exact at finite point sets.  A covariance is
factored once, by a pivoted Cholesky that returns its numerical rank,
whether it is positive definite or not.  A conditional draw of a
1-d model at the inside points forms no covariance when its kernel is built
in: a shape-2 kernel runs that pivoted Cholesky on kernel columns for all
replicates of a block in one loop, and the exponential kernel, which is
Markov on the line, draws a whole block as AR(1) chains outward from the
conditioning points in one O(n) banded solve; every other draw takes the
block code.  Gaussian tails go through the complementary error function, so
levels around ``b = 8`` (tail mass ~1e-16) keep full relative accuracy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlamch, dpstrf, dtbtrs
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

    def sample_uniform(self, rng, size: int):
        """``size`` uniform draws on the box, shape (size, d)."""
        return self.lower + self.side_lengths * rng.random((size, self.dimension))

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
    the decay of std near that maximum.  They set ``design.cluster_scale``
    and ``design.choose_m``.
    """

    alpha1: float
    c1: float
    beta0: float
    beta1: float
    constant_std: bool = True
    alpha2: float | None = None
    c2: float | None = None

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

def _pairwise_diff(a: np.ndarray, b: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Coordinate differences a[..., i, axis] - b[..., j, axis] as (..., n, k).

    The rows are first filled with b by a contiguous copy and then subtracted
    in place: the same bits as the broadcast subtract, which runs at about
    1.5-2 ns per element against well under 1 ns for the copy.
    """
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[-2:-1])
    out[...] = b[..., None, :, axis]
    return np.subtract(a[..., :, None, axis], out, out=out)


def _pairwise_dist(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``.

    (n, d) and (k, d) give (n, k), and stacked (B, n, d) and (B, k, d) give
    (B, n, k), pairing the sets along the leading axis.  The squares are
    summed axis by axis in cdist's order, so each matrix is bit-equal to cdist
    of its pair.  In one dimension the distance is |s - t|, which in IEEE
    arithmetic equals cdist's sqrt((s - t)**2) bit for bit unless (s - t)**2
    underflows (|s - t| below about 1e-154) or overflows.
    """
    if a.shape[-1] == 1:
        h = _pairwise_diff(a, b, 0, out)
        return np.abs(h, out=h)
    h = _pairwise_diff(a, b, 0, out)
    np.multiply(h, h, out=h)
    for axis in range(1, a.shape[-1]):
        step = _pairwise_diff(a, b, axis)
        np.multiply(step, step, out=step)
        h += step
    return np.sqrt(h, out=h)


class PowerExponential:
    """Stationary correlation r(s, t) = exp(-(|s - t| / ell)**shape).

    Every step after the distances runs in place, so with ``out`` given the
    kernel writes into it and allocates no (n, m) array.  Accepts stacked
    point sets (see ``FieldModel``).
    """

    stacked = True

    def __init__(self, shape: float, ell: float = 1.0):
        if not 0.0 < shape <= 2.0:
            raise ValueError("shape must lie in (0, 2]")
        if not (np.isfinite(ell) and ell > 0.0):
            raise ValueError("ell must be finite and positive")
        self.shape = float(shape)
        self.ell = float(ell)

    def __call__(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        h = _pairwise_dist(a, b, out=out)
        if self.ell != 1.0:
            h /= self.ell
        if self.shape == 2.0:
            np.multiply(h, h, out=h)
        elif self.shape != 1.0:
            np.power(h, self.shape, out=h)
        np.negative(h, out=h)
        return np.exp(h, out=h)

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
    stacked = True

    def __call__(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        h = _pairwise_diff(a, b, 0, out)
        return np.cos(h, out=h)

    @property
    def regularity(self) -> RegularityParams:
        # 1 - cos(h) ~ h^2 / 2
        return RegularityParams(alpha1=2.0, c1=0.5, beta0=1.0, beta1=1.0)

    def __repr__(self):
        return "CosineProcess()"


# ---------------------------------------------------------------------------
# Mean functions
# ---------------------------------------------------------------------------

class LinearMean:
    """mu(t) = intercept + coeffs . t."""

    def __init__(self, coeffs, intercept: float = 0.0):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        self.intercept = float(intercept)
        if not (np.isfinite(self.coeffs).all() and np.isfinite(self.intercept)):
            raise ValueError("coeffs and intercept must be finite")

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

    ``kernel(a, b, out=None)`` maps (n, d) and (k, d) point arrays to the
    (n, k) correlation matrix.  When ``out`` is given (a C-contiguous float
    array of that shape) the kernel writes the matrix into it and returns it;
    the conditional sampler passes a buffer it reuses across draws.  The
    conditional covariance is not symmetrized: it is the first n rows of
    ``kernel(concat(points, tau), points)``, its factorization reads only its
    upper triangle, and the built-in kernels are exactly symmetric, so that
    triangle equals the lower one bit for bit.  A
    kernel whose ``stacked`` attribute is true also maps stacked point sets
    (B, n, d) and (B, k, d) to the (B, n, k) matrices of each pair in one
    call; any other kernel is called once per pair.

    Instances are immutable after construction and safe to share across
    concurrently running replicate workers; all sampling goes through explicit
    RNG handles.
    """

    def __init__(self, domain: BoxDomain, kernel, mean=0.0, std=1.0,
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
        if self.constant_mean is not None and not np.isfinite(self.constant_mean):
            raise ValueError("mean must be finite")
        if self.constant_std is not None and not (np.isfinite(self.constant_std)
                                                  and self.constant_std > 0.0):
            raise ValueError("std must be finite and strictly positive")

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

    def corr(self, a, b, out=None) -> np.ndarray:
        pa = as_points(a, self.dimension)
        pb = as_points(b, self.dimension)
        vals = np.asarray(self.kernel(pa, pb, out=out), dtype=float)
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


# A residual beyond _INDEFINITE_TOL * trace/n marks a matrix that is
# indefinite beyond rounding.
_INDEFINITE_TOL = 1e-6


# Read-only arrays that serve every n by a prefix: the (N, N) strict upper
# triangle mask and the N probe weights, replaced by larger ones when an n
# beyond N comes.
_prefix_cache: dict = {}


def _cached_prefix(key: str, n: int, build) -> np.ndarray:
    full = _prefix_cache.get(key)
    if full is None or full.shape[0] < n:
        full = build(n)
        full.flags.writeable = False
        _prefix_cache[key] = full
    return full


def _strict_upper(n: int) -> np.ndarray:
    """Fortran-ordered (n, n) mask of the strict upper triangle: the leading
    block of one cached mask."""
    full = _cached_prefix("strict_upper", n,
                          lambda k: np.asfortranarray(np.triu(np.ones((k, k), dtype=bool), 1)))
    return full[:n, :n]


def _probe(n: int) -> np.ndarray:
    """Fixed pseudo-random weights in [0.5, 1.5) for the residual probe: the
    first n of one ``default_rng(0)`` uniform draw, so every n gets a prefix
    of the same sequence."""
    return _cached_prefix("probe", n,
                          lambda k: np.random.default_rng(0).uniform(0.5, 1.5, k))[:n]


def _lapack_factor(matrix: np.ndarray, lower: np.ndarray):
    """Copy ``matrix`` into ``lower.T`` and factor ``lower`` (Fortran-ordered)
    in place with LAPACK's pivoted Cholesky ``dpstrf``, which reads the upper
    triangle of ``matrix``, leaves the other one as it was and stops at the
    numerical rank (its default tolerance n * eps * max diagonal).  Returns
    (factored array, 0-based pivots, rank)."""
    np.copyto(lower.T, matrix)
    factored, piv, rank, _ = dpstrf(lower, lower=1, overwrite_a=1)
    return factored, piv - 1, rank


def factor_psd(matrix) -> np.ndarray:
    """Factor F of shape (n, r) with F @ F.T = matrix, r the numerical rank.

    One LAPACK pivoted Cholesky (:func:`_lapack_factor`) stops at the rank,
    and the rows of its lower factor are put back in the original order.  So
    even a positive definite matrix (r = n) gets a factor that is not
    triangular in the original order: its rows are those of the Cholesky
    factor of the pivoted matrix.  Rows whose covariance is exactly zero are
    never pivoted, so their factor rows are exactly zero.

    ``matrix`` is never modified: :func:`_lapack_factor` factors a
    Fortran-ordered copy.  The built-in kernels' covariances are exactly
    symmetric, so either triangle gives the same bits.

    :class:`SingularModelError` is raised when the matrix is indefinite
    beyond rounding: a residual diagonal below -1e-6 * trace/n, or a
    residual R = matrix - F F^T whose product with a fixed pseudo-random
    vector v exceeds the bound that any positive semidefinite R obeys, by
    more than 1e-6 * trace/n.  The product is a probe, not a proof: an
    indefinite R that happens to map v inside the bound (for instance
    R v = 0) still passes.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must have finite entries")
    n = a.shape[0]
    factored, piv, rank = _lapack_factor(a, np.empty((n, n), order="F"))
    lower = np.tril(factored[:, :rank])
    errors = _residual_errors(a[None], lower.T[None], piv[None], [rank])
    if errors:
        raise SingularModelError(errors[0])
    factor = np.empty((n, rank))
    factor[piv] = lower
    return factor


def _residual_errors(a: np.ndarray, lt: np.ndarray, piv: np.ndarray, ranks) -> dict:
    """Indefiniteness test of pivoted Cholesky factorizations; maps the index
    of each matrix that fails it to a message.

    ``a`` holds k matrices (k, n, n); ``lt[i]`` (c, n) is the transposed
    factor of matrix i with rows in pivot order (columns past the rank zero,
    any c >= rank); ``piv`` (k, n) holds the 0-based pivots.  A matrix fails
    when a residual diagonal of R = A - F F^T is below -tol, or when R v for
    the fixed probe v exceeds the bound that any positive semidefinite R obeys
    by more than tol, with tol = _INDEFINITE_TOL * trace/n.
    """
    k, n, _ = a.shape
    rows = np.arange(k)[:, None]
    diag = np.diagonal(a, axis1=1, axis2=2)
    tol = _INDEFINITE_TOL / n * diag.sum(axis=1)
    residual = diag[rows, piv] - np.einsum("icj,icj->ij", lt, lt)
    # A PSD residual R has |(R v)_i| <= sqrt(R_ii) * sum_j sqrt(R_jj) v_j for
    # v > 0 (Cauchy-Schwarz); one matrix-vector product catches the
    # off-diagonal mass the diagonal test cannot see.  v is not constant, so a
    # residual whose rows sum to zero is caught too.  Everything is in pivot
    # order, which leaves both tests unchanged.
    v = _probe(n)
    av = (a @ v)[rows, piv]
    v = v[piv]
    root = np.sqrt(np.maximum(residual, 0.0))
    probed = av - ((lt @ v[:, :, None]).transpose(0, 2, 1) @ lt)[:, 0]
    excess = (np.abs(probed) - root * (root * v).sum(axis=1, keepdims=True)).max(axis=1)
    low = residual.min(axis=1)
    errors = {}
    for i in np.flatnonzero((low < -tol) | (excess > tol)):
        if low[i] < -tol[i]:
            errors[int(i)] = _low_residual_message(n, low[i], ranks[i], tol[i])
        else:
            errors[int(i)] = (f"covariance of size n={n} is indefinite: the residual probe "
                              f"after rank {ranks[i]} exceeds its positive semidefinite bound "
                              f"by {excess[i]:.3e} > {tol[i]:.3e}")
    return errors


def _low_residual_message(n: int, low: float, rank: int, tol: float) -> str:
    return (f"covariance of size n={n} is indefinite: residual diagonal {low:.3e} "
            f"after rank {rank} is below {-tol:.3e}")


def sample_joint(model: FieldModel, points, rng) -> np.ndarray:
    """One exact draw of (f(t_1), ..., f(t_n)) under the model law."""
    pts = as_points(points, model.dimension)
    mean = model.mean_at(pts)
    factor = factor_psd(cov_matrix(model, pts))
    return mean + factor @ rng.standard_normal(factor.shape[1])


# ---------------------------------------------------------------------------
# Conditioning on a single observation
# ---------------------------------------------------------------------------

# Per-thread buffers of the block conditional draws: flat arrays behind the
# (B, n + 1, n) assembly and the (B, n, n) factors, replaced only when a block
# needs more elements than they hold.
_block_buffers = threading.local()
_NO_BUFFERS = (np.empty(0), np.empty(0))


def _block_buffer_pair(size: int, n: int):
    """This thread's (size, n + 1, n) assembly and (size, n, n) factor buffers.

    Both are C-contiguous views of a prefix of the thread's flat buffers, so
    blocks of any size and n share the same memory; the buffers grow only
    when a block needs more elements than any before it in this thread.
    """
    need = (size * (n + 1) * n, size * n * n)
    flat = getattr(_block_buffers, "flat", _NO_BUFFERS)
    if flat[0].size < need[0] or flat[1].size < need[1]:
        flat = _block_buffers.flat = tuple(buf if buf.size >= k else np.empty(k)
                                           for buf, k in zip(flat, need))
    return (flat[0][:need[0]].reshape(size, n + 1, n),
            flat[1][:need[1]].reshape(size, n, n))


def _stacked_corr(model: FieldModel, a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Correlations of the pairs (a[i], b[i]) into ``out``: one call for a
    stacked kernel and more than one pair, else one call per pair."""
    if a.shape[0] > 1 and getattr(model.kernel, "stacked", False):
        return model.kernel(a, b, out=out)
    for i in range(a.shape[0]):
        out[i] = model.kernel(a[i], b[i], out=out[i])
    return out


def _assemble(model: FieldModel, taus: np.ndarray, values_at_tau: np.ndarray,
              points: np.ndarray, assembly: np.ndarray, scratch: np.ndarray):
    """Conditional moments of a block, row i given f(taus[i]) = values_at_tau[i]
    at ``points[i]`` (m, d), built in place in ``assembly`` (B, m + 1, m) from
    ``kernel(concat(points[i], tau_i), points[i])``: row m of matrix i is
    r(tau_i, t_ij).  The sigma sigma^T and rank-one products go through
    ``scratch`` (B, m, m).  Returns (mean (B, m), cov (B, m, m) view of
    ``assembly``, mask (B, m) of points equal to their tau, errors); ``errors``
    maps each matrix with non-finite kernel values, zeroed, to its
    :class:`ModelEvaluationError`.
    """
    size, m, d = points.shape
    flat = points.reshape(-1, d)
    sig = model.std_at(flat).reshape(size, m)
    sig_tau = model.std_at(taus)
    mu_tau = model.mean_at(taus)
    corr = _stacked_corr(model, np.concatenate([points, taus[:, None, :]], axis=1), points,
                         assembly)
    finite = np.isfinite(corr).all(axis=(1, 2))
    errors = {int(i): ModelEvaluationError("correlation function returned a non-finite value")
              for i in np.flatnonzero(~finite)}
    corr[~finite] = 0.0
    r_tau = corr[:, m]
    mean = (model.mean_at(flat).reshape(size, m)
            + (sig / sig_tau[:, None]) * r_tau * (values_at_tau - mu_tau)[:, None])
    cov = corr[:, :m]
    if model.constant_std != 1.0:
        cov *= np.einsum("bi,bj->bij", sig, sig, out=scratch)
    proj = sig * r_tau
    cov -= np.einsum("bi,bj->bij", proj, proj, out=scratch)
    pinned = (points == taus[:, None, :]).all(axis=2)
    for i, j in zip(*np.nonzero(pinned)):
        mean[i, j] = values_at_tau[i]
        cov[i, j, :] = 0.0
        cov[i, :, j] = 0.0
    return mean, cov, pinned, errors


def conditional_moments(model: FieldModel, tau, value_at_tau: float, points):
    """Mean and covariance of the field at ``points`` given f(tau) = value.

    mean_i = mu(t_i) + (sigma(t_i)/sigma(tau)) r(t_i, tau) (v - mu(tau))
    cov_ij = sigma(t_i) sigma(t_j) (r(t_i, t_j) - r(t_i, tau) r(t_j, tau))

    Rows for points exactly equal to tau are pinned: mean = value, cov = 0.
    Returns (mean, cov, tau_mask), as :func:`_assemble` of a block of one.
    Non-finite kernel values raise :class:`ModelEvaluationError`.
    """
    tau = as_points(tau, model.dimension)[:1]
    pts = as_points(points, model.dimension)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    mean, cov, pinned, errors = _assemble(model, tau, np.array([value_at_tau], dtype=float),
                                          pts[None], np.empty((1, n + 1, n)),
                                          np.empty((1, n, n)))
    if errors:
        raise errors[0]
    return mean[0], cov[0], pinned[0]


def _conditional_draw(model: FieldModel, tau, value_at_tau: float, points, rng):
    """Draw from the conditional law; returns (values, rank of the covariance).

    The reference path, which the engine does not take: :func:`conditional_moments`,
    then :func:`factor_psd`, then mean + F z.
    """
    mean, cov, _ = conditional_moments(model, tau, value_at_tau, points)
    factor = factor_psd(cov)
    return mean + factor @ rng.standard_normal(factor.shape[1]), factor.shape[1]


def sample_conditional(model: FieldModel, tau, value_at_tau: float, points, rng) -> np.ndarray:
    """Exact draw of the field at ``points`` given f(tau) = value_at_tau.

    Points bit-equal to tau reproduce ``value_at_tau`` exactly.
    """
    values, _ = _conditional_draw(model, tau, value_at_tau, points, rng)
    return values


def _conditional_draw_block(model: FieldModel, taus: np.ndarray, values_at_tau: np.ndarray,
                            points: np.ndarray, rng):
    """Conditional draws for a block of B replicates: row i draws the field at
    ``points[i]`` (m, d) given f(taus[i]) = values_at_tau[i].

    Returns (values (B, m), rank (B,), errors).  ``errors`` maps the row of
    each replicate left without a draw to its error: kernel values that are
    not finite (:class:`ModelEvaluationError`), or a covariance indefinite
    beyond rounding (:class:`SingularModelError`); such rows are NaN and
    consume no normals.  The other rows consume rank normals each, in row
    order, as one draw each would.

    Every block size, one included, takes the same steps: assemble all
    covariances with :func:`_assemble` in the thread's buffer pair, factor
    each with one pivoted Cholesky, :func:`_lapack_factor` (as
    :func:`factor_psd` does), test every factor that stopped short of rank m
    for indefiniteness in one batched evaluation, and draw with the factors
    zero-padded to (m, m), allocating no (B, m, m) array.  A full-rank factor
    is not tested: every pivot was positive, so its residual is rounding.
    """
    size, m, d = points.shape
    assembly, work = _block_buffer_pair(size, m)
    mean, cov, _, errors = _assemble(model, taus, values_at_tau, points, assembly, work)

    # work[i].T is Fortran-ordered, so LAPACK factors it in place, reading
    # the upper triangle of cov[i]; it then holds the lower factor L_i of
    # cov[i] in the pivot order order[i], and work[i] holds L_i^T.  The mask
    # below zeroes what LAPACK left untouched.
    rank = np.zeros(size, dtype=int)
    order = np.broadcast_to(np.arange(m), (size, m)).copy()  # row order of each factor
    deficient = []
    for i in range(size):
        if i in errors:
            continue
        _, order[i], rank[i] = _lapack_factor(cov[i], work[i].T)
        if rank[i] < m:
            deficient.append(i)
    # keep L_i's lower triangle and its first rank_i columns
    np.copyto(work.transpose(0, 2, 1), 0.0, where=_strict_upper(m))
    work[np.arange(m) >= rank[:, None]] = 0.0
    if deficient:
        rows = deficient if len(deficient) < size else slice(None)  # a slice takes views
        # the factors' rows past the largest rank are zero: the probe skips them
        failed = _residual_errors(cov[rows], work[rows, :rank[deficient].max()], order[rows],
                                  rank[rows])
        for k, message in failed.items():
            errors[deficient[k]] = SingularModelError(message)
            rank[deficient[k]] = 0

    normals = np.zeros((size, m))
    normals[np.arange(m) < rank[:, None]] = rng.standard_normal(int(rank.sum()))
    draws = np.matmul(normals[:, None, :], work)[:, 0, :]  # row i: L_i z_i in pivot order
    mean[np.arange(size)[:, None], order] += draws
    if errors:
        mean[list(errors)] = np.nan
    return mean, rank, errors


# ---------------------------------------------------------------------------
# Conditional draws from kernel columns
# ---------------------------------------------------------------------------

# Most columns a kernel-column factor takes, above every numerical rank the
# 1-d shape-2 kernels reach at m = 320 (9 to 17); a covariance that needs
# more is drawn by the dense route.
_COLUMN_CAP = 64

# dpstrf's default tolerance is n * dlamch('E') * max diagonal; dlamch('E')
# is the unit roundoff, half of numpy's machine epsilon.
_UNIT_ROUNDOFF = float(dlamch("E"))


def _has_low_rank_columns(model: FieldModel) -> bool:
    """True for a 1-d model whose kernel is a built-in shape-2 kernel
    (``SquaredExponential``, ``PowerExponential(2, ell)``, ``CosineProcess``).

    Their conditional covariances at a few hundred points have numerical
    rank 2 to about 17, and they are positive semidefinite by construction.
    Subclasses and user kernels do not qualify; in 2-d the ranks (43 to 59
    for sqexp at m = 256) make the dense route faster.
    """
    kernel = model.kernel
    if model.dimension != 1:
        return False
    if type(kernel) is CosineProcess:
        return True
    return type(kernel) in (PowerExponential, SquaredExponential) and kernel.shape == 2.0


def _kernel_column(kernel, t: np.ndarray, t_p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Columns r(t, t_p) of a kernel that takes :func:`_column_factor`, at the
    1-d points ``t`` (B, n) and one point ``t_p`` (B, 1) per row, into ``out``:
    the kernel's own steps after the subtraction, so row i is bit-equal to
    ``kernel(t[i][:, None], t_p[i][:, None])[:, 0]`` ((h / ell)**2 equals
    (|h| / ell)**2 exactly), without its array set-up."""
    np.subtract(t, t_p, out=out)
    if type(kernel) is CosineProcess:
        return np.cos(out, out=out)
    if kernel.ell != 1.0:
        out /= kernel.ell
    np.multiply(out, out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _live_moments(model: FieldModel, points: np.ndarray, inside: np.ndarray):
    """The points of ``inside`` (B, m) that the 1-d routes can draw, with mu
    and sigma there, row-major: a row with a non-finite point, mean or std
    goes into ``errors`` and keeps no live point.  Returns (live, mu, sigma,
    errors)."""
    t = points[..., 0]  # gathers from this 1-d view are several times faster
    errors = {int(i): ModelEvaluationError("correlation function returned a non-finite value")
              for i in np.flatnonzero((inside & ~np.isfinite(t)).any(axis=1))}
    live = inside.copy()
    live[list(errors)] = False
    try:
        at = t[live]
        return live, model.mean_at(at), model.std_at(at), errors
    except ModelEvaluationError:
        for i in np.flatnonzero(live.any(axis=1)):
            try:
                model.mean_at(t[i, live[i]]), model.std_at(t[i, live[i]])
            except ModelEvaluationError as exc:
                errors[int(i)], live[i] = exc, False
    return live, model.mean_at(t[live]), model.std_at(t[live]), errors


def _column_factor(model: FieldModel, taus: np.ndarray, values_at_tau: np.ndarray,
                   points: np.ndarray, inside: np.ndarray):
    """Conditional means and factors of a block from kernel columns, for a
    model where :func:`_has_low_rank_columns` holds: row i at the points
    ``inside[i]`` of ``points[i]`` (m, 1) given f(taus[i]) = values_at_tau[i].

    Returns (mean (B, n), factor (B, r, n), rank (B,), live (B, m), errors,
    dense).  Row i's points ``live[i]`` fill its first slots in order, and
    tau_i pads the rest up to n, the largest count; its draw is mean[i] +
    z @ factor[i] with rank[i] normals z (factor[i] is F_i^T, zero past
    rank[i]).  ``errors`` maps each dropped row to its error, and ``dense``
    lists the rows that need more than ``_COLUMN_CAP`` columns; these rows
    keep no live point and have rank 0.

    One pivoted Cholesky on kernel columns for all rows, which never forms a
    covariance: the residual diagonal starts at sigma^2 (1 - r_tau^2), and
    each step takes, per row, the column at the largest residual p,
    sigma sigma_p r(., t_p) - G G_p^T, with G the columns taken so far
    behind the rank-one term sigma r_tau.  A row stops where dpstrf does,
    at n_i * unit roundoff * its largest residual, and then takes zero
    columns.  The mean reads only r_tau.  Points bit-equal to tau, padding
    included, have zero residual, so they are never pivoted, keep the value
    and have zero factor rows.

    A row with a non-finite point, mean or std, or a non-finite value in the
    columns it took, is dropped (:class:`ModelEvaluationError`), as is one
    with a residual diagonal below -_INDEFINITE_TOL * trace/n_i
    (:class:`SingularModelError`, as in :func:`factor_psd`).  The residual
    probe of :func:`factor_psd` is not run: it would cost the n^2 kernel
    values this route avoids, and these kernels are positive semidefinite
    by construction.
    """
    size = len(taus)
    t0 = taus[:, :1]
    live, mu, sig, errors = _live_moments(model, points, inside)
    count = np.count_nonzero(live, axis=1)
    n = int(count.max(initial=0))
    valid = np.arange(n) < count[:, None]
    t = np.repeat(t0, n, axis=1)
    t[valid] = points[..., 0][live]
    sig_tau, mu_tau = model.std_at(taus)[:, None], model.mean_at(taus)[:, None]
    s = np.repeat(sig_tau, n, axis=1)
    s[valid] = sig
    mean = np.repeat(mu_tau, n, axis=1)
    mean[valid] = mu
    r_tau = _kernel_column(model.kernel, t, t0, np.empty((size, n)))
    mean += (s / sig_tau) * r_tau * (values_at_tau[:, None] - mu_tau)
    pinned = t == t0
    np.copyto(mean, values_at_tau[:, None], where=pinned)
    residual = s * s * (1.0 - r_tau * r_tau)
    residual[pinned] = 0.0
    trace = residual.sum(axis=1)
    stop = count * _UNIT_ROUNDOFF * residual.max(axis=1, initial=0.0)
    # cols[0] is sigma r_tau and cols[1:k + 1] are the factors' columns,
    # each (B, n); the buffer grows with the ranks reached
    cols = np.empty((min(_COLUMN_CAP, 16) + 1, size, n))
    np.multiply(s, r_tau, out=cols[0])
    column = r_tau  # spent: it holds each new column
    rows = np.arange(size)
    rank = np.zeros(size, dtype=int)
    active = count > 0
    dense = []
    k = 0
    while active.any():
        p = residual.argmax(axis=1)
        pivot = residual[rows, p]
        active &= pivot > stop  # NaN stops too
        if k == _COLUMN_CAP or not active.any():
            dense = np.flatnonzero(active).tolist()
            break
        if k + 1 == len(cols):
            cols = np.concatenate([cols, np.empty_like(cols)])
        _kernel_column(model.kernel, t, t[rows, p][:, None], column)
        if model.constant_std != 1.0:
            column *= s * s[rows, p][:, None]
        # row i: column_i -= cols[:k + 1, i, p_i] @ cols[:k + 1, i], one stacked matmul
        taken = cols[:k + 1].transpose(1, 0, 2)
        column -= np.matmul(taken[rows, None, :, p], taken)[:, 0]
        k += 1
        np.divide(column, np.sqrt(np.where(active, pivot, 1.0))[:, None], out=cols[k])
        cols[k, ~active] = 0.0  # a row that has stopped takes a zero column
        residual -= np.square(cols[k], out=column)
        residual[rows[active], p[active]] = 0.0
        rank += active
    finite = np.isfinite(cols[:k + 1]).all(axis=(0, 2))
    low = np.where(valid, residual, np.inf).min(axis=1, initial=np.inf)
    tol = _INDEFINITE_TOL * trace / np.maximum(count, 1)
    failed = ~finite | (low < -tol)
    failed[dense] = False
    for i in np.flatnonzero(failed):
        errors[int(i)] = (SingularModelError(_low_residual_message(count[i], low[i], rank[i],
                                                                   tol[i]))
                          if finite[i] else
                          ModelEvaluationError("correlation function returned a non-finite value"))
    dropped = list(errors) + dense
    rank[dropped] = 0
    live[dropped] = False
    factor = cols[1:k + 1].transpose(1, 0, 2)
    np.copyto(factor, 0.0, where=pinned[:, None, :])
    return mean, factor, rank, live, errors, dense


# ---------------------------------------------------------------------------
# Conditional draws of the 1-d exponential kernel as a Markov chain
# ---------------------------------------------------------------------------

def _is_markov(model: FieldModel) -> bool:
    """True for a 1-d model whose kernel type is exactly ``Exponential`` or
    ``PowerExponential`` with shape 1: the Ornstein-Uhlenbeck correlation,
    which is Markov on the line (in 2-d exp(-|s - t| / ell) is not)."""
    kernel = model.kernel
    return (model.dimension == 1 and type(kernel) in (PowerExponential, Exponential)
            and kernel.shape == 1.0)


def _markov_draw(model: FieldModel, taus: np.ndarray, values_at_tau: np.ndarray,
                 points: np.ndarray, inside: np.ndarray, rng):
    """Exact draws of a block for a model where :func:`_is_markov` holds: row
    i at the points ``inside[i]`` of ``points[i]`` (m, 1) given f(taus[i]) =
    values_at_tau[i].  Returns (values (B, m), rank (B,), errors) as
    :func:`_conditional_draw_block` does, NaN outside ``inside``.

    The standardized field x = (f - mu) / sigma is then an AR(1) chain that
    walks outward from x_tau = (v - mu(tau)) / sigma(tau): right of tau in
    ascending order, left of it in descending order.  With gap g to the
    previous point (tau first), x_k = rho x_{k-1} + s z_k, rho = exp(-g / ell)
    and s = sqrt(-expm1(-2 g / ell)).  All walks of the block, end to end, are
    one unit-lower-bidiagonal solve (``dtbtrs``); the normals are drawn in one
    call, in row and then chain order, as one draw per row would take them.
    Points bit-equal to tau keep the value; they and exact duplicates (s = 0)
    take no normal, so a row's rank, the number of normals it draws, is the
    exact rank of its conditional covariance.  A row with a non-finite point,
    mean or std is dropped (:class:`ModelEvaluationError`) and takes no
    normal; nothing else can fail, as the chain is an exact factor.
    """
    size, m = inside.shape
    t, t0 = points[..., 0], taus[:, 0]
    live, mean, sig, errors = _live_moments(model, points, inside)
    x_tau = (values_at_tau - model.mean_at(taus)) / model.std_at(taus)
    # each row's live points sorted: the first `left` lie left of tau; the
    # walk right of tau comes first, then the walk left of it
    n = np.count_nonzero(live, axis=1)[:, None]
    left = np.count_nonzero(live & (t < t0[:, None]), axis=1)[:, None]
    j = np.arange(m)
    walk = j < n
    order = np.argsort(np.where(live, t, np.inf), axis=1, kind="stable")
    chain = np.take_along_axis(order, np.where(j < n - left, left + j, n - 1 - j) * walk,
                               axis=1)[walk]
    del order  # every chain-long temporary is freed as soon as it is spent
    row, first = np.repeat(np.arange(size), n[:, 0]), ((j == 0) | (j == n - left))[walk]
    gap = t[row, chain]
    gap -= np.where(first, t0[row], np.roll(gap, 1))
    np.abs(gap, out=gap)
    gap /= model.kernel.ell
    rhs = np.exp(-gap)  # rho, until it becomes the right-hand side
    band = np.zeros((2, row.size), order="F")  # unit diagonal; row 1 is the subdiagonal
    np.negative(rhs[1:], out=band[1, :-1], where=~first[1:])
    rhs *= np.where(first, x_tau[row], 0.0)
    scale = np.sqrt(-np.expm1(-2.0 * gap))
    del gap
    drawn = scale > 0.0
    rank = np.bincount(row[drawn], minlength=size)
    rhs[drawn] += scale[drawn] * rng.standard_normal(int(rank.sum()))
    values = np.full((size, m), np.nan)
    if row.size:
        x, _ = dtbtrs(band, rhs[:, None], uplo="L", diag="U", overwrite_b=1)
        values[row, chain] = x[:, 0]
    values[live] = mean + sig * values[live]
    np.copyto(values, values_at_tau[:, None], where=live & (t == t0[:, None]))
    return values, rank, errors


def _conditional_draw_inside(model: FieldModel, taus: np.ndarray, values_at_tau: np.ndarray,
                             points: np.ndarray, inside: np.ndarray, rng):
    """Conditional draws of a block at the points ``inside`` (B, m) alone,
    exact since their law is the marginal of the law at all m points: returns
    (values (B, m), rank (B,), errors) as :func:`_conditional_draw_block`
    does, NaN outside ``inside``.  A model for which :func:`_is_markov` holds
    draws the block as one chain (:func:`_markov_draw`); one for which
    :func:`_has_low_rank_columns` holds factors the block from kernel columns
    in one pass (:func:`_column_factor`) and draws it as mean + z F^T.  Every
    other row, and a row past the column cap, is drawn as a block of one
    (:func:`_conditional_draw_block`).  The normals are taken in row order,
    as one draw per row would take them.  On every route a failure, a
    non-finite mean or std included, drops the row before it draws a
    normal.  A row with no inside point draws nothing and has rank 0.
    """
    if _is_markov(model):
        return _markov_draw(model, taus, values_at_tau, points, inside, rng)
    size = len(taus)
    values = np.full(inside.shape, np.nan)
    if _has_low_rank_columns(model):
        mean, factor, rank, live, errors, dense = _column_factor(model, taus, values_at_tau,
                                                                 points, inside)
    else:
        mean, factor, live = np.empty((size, 0)), np.empty((size, 0, 0)), np.zeros_like(inside)
        rank, errors, dense = np.zeros(size, dtype=int), {}, np.flatnonzero(inside.any(axis=1))
    normals = np.zeros(factor.shape[:2])
    take = np.arange(factor.shape[1]) < rank[:, None]
    start = 0
    for i in [*dense, size]:
        # the kernel-column rows before row i, then row i on the dense route
        normals[start:i][take[start:i]] = rng.standard_normal(int(rank[start:i].sum()))
        start = i + 1
        if i == size:
            break
        row, at = slice(i, i + 1), inside[i]
        try:
            drawn, rank[row], failed = _conditional_draw_block(
                model, taus[row], values_at_tau[row], points[row][:, at], rng)
        except (ModelEvaluationError, SingularModelError) as exc:
            errors[int(i)] = exc
            continue
        values[i, at] = drawn
        errors.update((int(i), exc) for exc in failed.values())
    draws = mean + np.matmul(normals[:, None, :], factor)[:, 0]
    values[live] = draws[np.arange(draws.shape[1]) < np.count_nonzero(live, axis=1)[:, None]]
    return values, rank, errors


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
