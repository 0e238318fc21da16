"""Adaptive random discretization around the tilted location tau.

The excursion cluster around tau has spatial extent of order 1/zeta with
zeta = b**(2/alpha) up to the kernel's local constant, so design points are
drawn i.i.d. from a heavy-tailed isotropic base density k recentred at tau
and contracted by zeta.  Inverse-density weighting then gives a conditionally
unbiased estimate of the excursion-set volume from a constant number of
points, independent of the level b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtr, fdtri, gammaln

from .errors import ConfigurationError, IntegrandBoundsError, InvalidLevelError
from .field import BoxDomain, FieldModel, as_points

__all__ = [
    "cluster_scale",
    "choose_m",
    "DesignDensity",
    "DesignDraw",
    "sample_design_block",
    "sample_design_points",
    "mes_hat",
    "mes_hat_block",
    "alpha_hat",
    "alpha_hat_block",
    "within_bounds",
]


# ---------------------------------------------------------------------------
# Cluster scale
# ---------------------------------------------------------------------------

def cluster_scale(model: FieldModel, b: float) -> float:
    """Contraction factor zeta = max(zeta1, zeta2) for level b, where zeta_i
    solves c_i |s|**alpha_i = b**-2 (zeta2, of the std profile, only if any)."""
    if b <= 1.0:
        raise InvalidLevelError(f"cluster scale requires b > 1, got {b}")
    rp = model.regularity
    if rp is None:
        raise ConfigurationError("model has no regularity parameters; supply them explicitly")
    zeta = b ** (2.0 / rp.alpha1) * rp.c1 ** (1.0 / rp.alpha1)
    if not rp.constant_std:
        zeta = max(zeta, b ** (2.0 / rp.alpha2) * rp.c2 ** (1.0 / rp.alpha2))
    return zeta


def choose_m(eps: float, model: FieldModel) -> int:
    """Design size m = ceil(eps**-(d (2/min(alpha1, alpha2) + 2/beta1))).

    The rate that keeps the relative discretization bias of order eps, with
    constant 1; fixed-m overrides are the usual choice in practice.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    rp = model.regularity
    if rp is None:
        raise ConfigurationError("model has no regularity parameters; supply them explicitly")
    exponent = model.dimension * (2.0 / rp.alpha_min + 2.0 / rp.beta1)
    return int(math.ceil(eps ** (-exponent)))


# ---------------------------------------------------------------------------
# Heavy-tailed isotropic base density (multivariate-t radial profile)
# ---------------------------------------------------------------------------

# |T| for T ~ t_3 is sqrt(3) w, where w solves (2/pi)(atan w + w/(1+w^2)) = u.
# The seed w ~ u p(u) / cbrt(1 - u) follows both ends (w ~ pi u / 4 at 0,
# w ~ (4 / (3 pi (1 - u)))**(1/3) at 1); the quadratic p is a least-squares fit
# on [0, 0.9] with relative error below 0.7%, so three Newton steps reach
# rounding level.  Above _T3_TAIL the residual loses digits to cancellation
# against u ~ 1 and fdtri is used instead.
_T3_TAIL = 0.9
_T3_SEED = (0.1766, -0.2587, 0.7859)
_T3_NEWTON_STEPS = 3
_SQRT3 = math.sqrt(3.0)


def _abs_t3_ppf(u: np.ndarray) -> np.ndarray:
    """Quantile of |T| for T ~ t_3 at u in [0, 1], by Newton on the closed form."""
    shape = u.shape
    u = u.reshape(-1)
    p2, p1, p0 = _T3_SEED
    w = u * ((p2 * u + p1) * u + p0) / np.cbrt(1.0 - np.minimum(u, _T3_TAIL))
    target = (0.5 * math.pi) * u
    for _ in range(_T3_NEWTON_STEPS):
        q = 1.0 + w * w
        # (atan w + w/q - pi u / 2) / (2 / q^2) is (G(w) - u) / G'(w)
        w -= (np.arctan(w) + w / q - target) * (0.5 * q * q)
    r = _SQRT3 * w
    tail = u > _T3_TAIL
    if tail.any():
        r[tail] = np.sqrt(fdtri(1, 3.0, u[tail]))
    return r.reshape(shape)


class DesignDensity:
    """Isotropic density k(t) = c (1 + |t|^2 / (dof * scale^2))**-((dof+d)/2).

    This is the multivariate t density with ``dof`` degrees of freedom and
    scale matrix scale^2 * I, so its radial law has the exact closed form
    |X| = scale * sqrt(d * F) with F ~ F(d, dof); radii are drawn by inverting
    that CDF (see :meth:`radius_ppf`) and directions uniformly on the sphere.
    The tail exponent is dof (k(t) ~ |t|**-(d+dof)), heavy enough for
    bounded-variance weighting with dof >= 3.  The constant c is the closed
    form of the multivariate t; construction does no numerical integration.
    """

    def __init__(self, dim: int, dof: int | None = None, scale: float | None = None):
        if dim < 1:
            raise ConfigurationError("dimension must be at least 1")
        if dof is None:
            dof = 3 if dim == 1 else 4
        if scale is None:
            scale = 1.0
        if dof < 3:
            raise ConfigurationError("need dof >= 3 for a usable heavy tail")
        if not (math.isfinite(scale) and scale > 0.0):
            raise ConfigurationError("scale must be finite and positive")
        self.dim = int(dim)
        self.dof = float(dof)
        self.scale = float(scale)
        self._log_norm = (gammaln((self.dof + dim) / 2.0) - gammaln(self.dof / 2.0)
                          - dim / 2.0 * math.log(self.dof * math.pi)
                          - dim * math.log(self.scale))

    def log_pdf(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        r2 = np.sum(pts * pts, axis=1)
        return self._log_norm - (self.dof + self.dim) / 2.0 * np.log1p(
            r2 / (self.dof * self.scale ** 2))

    def radius_cdf(self, r):
        """P(|X| <= r) via the F(d, dof) representation."""
        r = np.asarray(r, dtype=float)
        return fdtr(self.dim, self.dof, r * r / (self.dim * self.scale ** 2))

    def radius_ppf(self, u):
        """Inverse radial CDF at u in [0, 1]; exact in both tails.

        The default 1-d density (dof 3) inverts the closed-form CDF of |t_3|
        by Newton steps, within 16 ulp of ``fdtri`` and about four times
        faster; its upper tail (u > 0.9) and every other (dim, dof) use
        sqrt(d * fdtri(d, dof, u)).  Either way one uniform gives one radius.
        """
        if self.dim == 1 and self.dof == 3.0:
            return self.scale * _abs_t3_ppf(np.asarray(u, dtype=float))
        return self.scale * np.sqrt(self.dim * fdtri(self.dim, self.dof, u))

    def sample(self, rng, size: int) -> np.ndarray:
        """i.i.d. draws from k: radius by CDF inversion, direction uniform."""
        r = self.radius_ppf(rng.random(size))
        z = rng.standard_normal((size, self.dim))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        np.maximum(norms, np.finfo(float).tiny, out=norms)
        return r[:, None] * (z / norms)

    def __repr__(self):
        return f"DesignDensity(dim={self.dim}, dof={self.dof:g}, scale={self.scale:g})"


# ---------------------------------------------------------------------------
# Design draws and volume estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignDraw:
    """Design points around tau with their recorded log densities.

    A single draw has points (m, d); a block of B draws stacks them along a
    leading axis, points (B, m, d), and ``draw[i]`` is draw i.  Points may
    fall outside the domain; they are retained with ``inside`` False so that
    their excursion indicators vanish while the draw stays exchangeable.
    """

    points: np.ndarray       # (..., m, d)
    log_density: np.ndarray  # (..., m) log of zeta^d k(zeta (t_i - tau))
    inside: np.ndarray       # (..., m) bool
    tau: np.ndarray          # (..., d)
    zeta: float

    @property
    def m(self) -> int:
        return self.points.shape[-2]

    def __getitem__(self, i) -> "DesignDraw":
        return DesignDraw(points=self.points[i], log_density=self.log_density[i],
                          inside=self.inside[i], tau=self.tau[i], zeta=self.zeta)


def sample_design_block(taus, zeta: float, m: int, density: DesignDensity,
                        domain: BoxDomain, rng) -> DesignDraw:
    """m i.i.d. points t_ij = tau_i + s_ij / zeta around each row of ``taus``
    (B, d), with s_ij from the base density; returns a stacked draw.

    The radii of all B * m points are drawn first, then their directions, so
    a block of one consumes the stream as a single draw does.  Recorded log
    densities are log(zeta^d k(zeta (t_ij - tau_i))), evaluated on the stored
    points so the identity holds bit-exactly.
    """
    if m < 1:
        raise ValueError("need at least one design point")
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    taus = np.asarray(taus, dtype=float)
    size, d = taus.shape
    raw = density.sample(rng, size * m).reshape(size, m, d)
    points = taus[:, None, :] + raw / zeta
    flat = (zeta * (points - taus[:, None, :])).reshape(-1, d)
    log_k = (d * math.log(zeta) + density.log_pdf(flat)).reshape(size, m)
    inside = domain.contains(points.reshape(-1, d)).reshape(size, m)
    return DesignDraw(points=points, log_density=log_k, inside=inside, tau=taus,
                      zeta=float(zeta))


def sample_design_points(tau, zeta: float, m: int, density: DesignDensity,
                         domain: BoxDomain, rng) -> DesignDraw:
    """m i.i.d. points t_i = tau + s_i / zeta with s_i from the base density:
    a block of one (see :func:`sample_design_block`)."""
    tau = as_points(tau, density.dim)[:1]
    return sample_design_block(tau, zeta, m, density, domain, rng)[0]


def _check_aligned(draw: DesignDraw, *arrays):
    if any(a.shape != draw.inside.shape for a in arrays):
        raise ValueError("values must align with the design points")


def _weighted_hit_mean(weights, values: np.ndarray, level: float,
                       draw: DesignDraw) -> np.ndarray:
    """(1/m) sum_i weights_i I(values_i > level, t_i in T) / k_i over the last axis."""
    hits = (values > level) & draw.inside
    return np.where(hits, weights * np.exp(-draw.log_density), 0.0).sum(axis=-1) / draw.m


def mes_hat_block(values, gamma: float, draw: DesignDraw, ratio=1.0) -> np.ndarray:
    """:func:`mes_hat` of each draw of a stacked block; values (B, m)."""
    values = np.asarray(values, dtype=float)
    _check_aligned(draw, values)
    return _weighted_hit_mean(ratio, values, gamma, draw)


def alpha_hat_block(xi_values, f_values, b: float, draw: DesignDraw) -> np.ndarray:
    """:func:`alpha_hat` of each draw of a stacked block, without a bounds check."""
    xi = np.asarray(xi_values, dtype=float)
    fv = np.asarray(f_values, dtype=float)
    _check_aligned(draw, xi, fv)
    return _weighted_hit_mean(xi, fv, b, draw)


def mes_hat(values, gamma: float, draw: DesignDraw, ratio=1.0) -> float:
    """Unbiased excursion-volume estimate (1/m) sum r_i I(f(t_i) > gamma) / k(t_i),
    restricted to points inside the domain.

    ``ratio`` holds r_i = g(t_i) / pi(t_i), the tau proposal density over the
    tilted tau density (see ``measure.proposal_ratio``); the default 1.0 is
    the plain volume estimate, for tau drawn from pi itself.
    """
    return float(mes_hat_block(values, gamma, draw, ratio))


def alpha_hat(xi_values, f_values, b: float, draw: DesignDraw,
              bounds: tuple[float, float] | None = None) -> float:
    """Weighted excursion integral estimate (1/m) sum xi_i I(f_i > b) / k_i.

    If ``bounds`` = (a1, a2) is supplied, every integrand value must lie in
    [a1, a2]; a violation raises :class:`IntegrandBoundsError`.
    """
    xi = np.asarray(xi_values, dtype=float)
    if bounds is not None and not within_bounds(xi, bounds):
        raise IntegrandBoundsError(
            f"integrand value outside declared bounds [{bounds[0]}, {bounds[1]}]")
    return float(alpha_hat_block(xi, f_values, b, draw))


def within_bounds(xi_values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Whether every integrand value over the last axis lies in [a1, a2]."""
    a1, a2 = bounds
    return np.all((xi_values >= a1) & (xi_values <= a2), axis=-1)
