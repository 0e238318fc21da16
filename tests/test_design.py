import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import fdtri

import excursim as ex
from excursim.errors import ConfigurationError, IntegrandBoundsError, InvalidLevelError


class TestClusterScale:
    def test_smooth_kernel_unit_constant(self, smooth_model):
        # solve c1 |s|^alpha1 = b^-2 for |s|^-1 with alpha1=2, c1=1
        zeta = ex.cluster_scale(smooth_model, 5.0)
        assert isinstance(zeta, float)
        assert zeta == pytest.approx(5.0)

    def test_rough_kernel_quarter_constant(self, rough_model):
        # |s|/4 = 1/16  ->  |s| = 1/4  ->  zeta = 4
        assert ex.cluster_scale(rough_model, 4.0) == pytest.approx(4.0)

    def test_cosine_half_constant(self, cosine_model):
        assert ex.cluster_scale(cosine_model, 3.0) == pytest.approx(3.0 / math.sqrt(2.0))

    def test_nonconstant_std_contributes_second_scale(self):
        # zeta1 = 3 from the correlation; zeta2 = c2 * 9 from the std profile
        def model(c2):
            reg = ex.RegularityParams(alpha1=2.0, c1=1.0, constant_std=False,
                                      alpha2=1.0, c2=c2)
            return ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(),
                                 std=lambda p: 1.0 + 0.0 * p[:, 0], regularity=reg)

        assert ex.cluster_scale(model(2.0), 3.0) == pytest.approx(2.0 * 9.0)
        assert ex.cluster_scale(model(0.1), 3.0) == pytest.approx(3.0)

    def test_requires_rare_event_level(self, smooth_model):
        with pytest.raises(InvalidLevelError):
            ex.cluster_scale(smooth_model, 1.0)

    def test_missing_regularity_rejected(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]),
                              lambda a, b: np.ones((a.shape[0], b.shape[0])))
        with pytest.raises(ConfigurationError):
            ex.cluster_scale(model, 3.0)


class TestDesignDensity:
    def test_defaults_by_dimension(self):
        assert ex.DesignDensity(1).dof == 3.0
        assert ex.DesignDensity(2).dof == 4.0

    def test_thin_tail_dof_rejected(self):
        with pytest.raises(ConfigurationError):
            ex.DesignDensity(1, dof=2)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ConfigurationError, match="scale must be finite and positive"):
            ex.DesignDensity(2, 4, scale)

    def test_bounded_by_peak(self, rng):
        density = ex.DesignDensity(2, 4, 0.625)
        pts = rng.standard_normal((200, 2)) * 3.0
        peak = np.exp(density.log_pdf(np.zeros(2)))[0]
        assert (np.exp(density.log_pdf(pts)) <= peak + 1e-15).all()

    def test_heavy_tail_exponent(self):
        # k(t) |t|^(d+dof) approaches a constant
        density = ex.DesignDensity(2, 4, 0.5)
        r1, r2 = 1e3, 1e4
        v1 = math.exp(density.log_pdf([r1, 0.0])[0]) * r1 ** 6
        v2 = math.exp(density.log_pdf([r2, 0.0])[0]) * r2 ** 6
        assert v1 == pytest.approx(v2, rel=1e-2)

    def test_median_radius_against_radial_quadrature(self):
        for dim, dof, scale in [(1, 3, 1.0), (2, 4, 0.625), (2, 4, 2.0)]:
            density = ex.DesignDensity(dim, dof, scale)
            surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)

            def radial_mass(r):
                val, _ = quad(lambda rho: surface * rho ** (dim - 1)
                              * math.exp(density.log_pdf(np.r_[rho, [0.0] * (dim - 1)])[0]),
                              0.0, r, limit=200)
                return val

            assert radial_mass(float(density.radius_ppf(0.5))) == pytest.approx(0.5, abs=1e-8)

    def test_radius_cdf_inverts_ppf(self):
        for density in (ex.DesignDensity(2, 4, 0.625), ex.DesignDensity(1, 3, 1.0)):
            for u in (1e-12, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12):
                assert float(density.radius_cdf(density.radius_ppf(u))) == pytest.approx(u, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_log_pdf_matches_multivariate_t(self, dim):
        # the closed-form constant against scipy's multivariate t, down to
        # scales of 1e-8 and up to 1e8.  At dof 1e4 both sides round gammaln
        # values near 4e4, about 1e-12 absolute, so the bound has that
        # absolute floor where log k is near 0.
        from scipy import stats
        rng = np.random.default_rng(7)
        for dof in (3, 4, 10, 1e4):
            for scale in (1e-8, 0.5, 1.0, 1e8):
                density = ex.DesignDensity(dim, dof, scale)
                z = rng.standard_normal((6, dim))
                x = z / np.linalg.norm(z, axis=1, keepdims=True)
                x *= scale * np.array([0.0, 0.3, 1.0, 3.0, 30.0, 1e3])[:, None]
                exact = stats.multivariate_t(loc=np.zeros(dim), shape=scale ** 2 * np.eye(dim),
                                             df=dof).logpdf(x)
                np.testing.assert_allclose(density.log_pdf(x), exact, rtol=1e-12, atol=1e-12,
                                           err_msg=f"dim={dim} dof={dof} scale={scale}")

    def test_one_dimensional_matches_student_t(self, rng):
        from scipy import stats
        density = ex.DesignDensity(1, 3, 1.0)
        x = np.linspace(-5, 5, 101)[:, None]
        assert np.allclose(np.exp(density.log_pdf(x)), stats.t.pdf(x[:, 0], 3), rtol=1e-12)
        draws = density.sample(rng, 20000)[:, 0]
        assert stats.kstest(draws, lambda v: stats.t.cdf(v, 3)).pvalue > 0.01


class TestRadiusPpf:
    """The default 1-d density inverts the closed-form CDF of |t_3|; every
    other density keeps sqrt(d * fdtri(d, dof, u))."""

    ULP_TOLERANCE = 16

    @staticmethod
    def _grid():
        k = np.arange(1, 54, dtype=float)
        return np.unique(np.concatenate([
            np.random.default_rng(2024).random(100_000),
            np.arange(2 ** 16) / 2.0 ** 16,
            2.0 ** -k,
            1.0 - 2.0 ** -k,
            [0.0],
        ]))

    def test_one_dimensional_radius_matches_fdtri_reference(self):
        u = self._grid()
        radii = ex.DesignDensity(1).radius_ppf(u)
        reference = np.sqrt(fdtri(1, 3, u))
        assert radii[u == 0.0][0] == 0.0 and reference[u == 0.0][0] == 0.0
        positive = reference > 0.0
        ulps = np.abs(radii - reference)[positive] / np.spacing(reference[positive])
        assert ulps.max() <= self.ULP_TOLERANCE
        assert np.all(np.diff(radii) >= 0.0)

    def test_scalar_input_and_scale(self):
        median = float(ex.DesignDensity(1, 3, 1.0).radius_ppf(0.5))
        reference = float(np.sqrt(fdtri(1, 3, 0.5)))
        assert abs(median - reference) <= self.ULP_TOLERANCE * np.spacing(reference)
        u = self._grid()[::97]
        assert np.array_equal(ex.DesignDensity(1, 3, 2.0).radius_ppf(u),
                              2.0 * ex.DesignDensity(1, 3, 1.0).radius_ppf(u))

    @pytest.mark.parametrize("dim,dof,scale", [(2, 4, 0.625), (1, 4, 1.0), (1, 5, 0.5), (3, 3, 2.0)])
    def test_other_densities_keep_fdtri_bit_for_bit(self, dim, dof, scale):
        u = self._grid()
        expected = scale * np.sqrt(dim * fdtri(dim, float(dof), u))
        assert np.array_equal(ex.DesignDensity(dim, dof, scale).radius_ppf(u), expected)

    def test_sample_consumes_the_stream_as_the_fdtri_draw(self):
        rng = np.random.default_rng(77)
        draws = ex.DesignDensity(1).sample(rng, 320)[:, 0]
        ref_rng = np.random.default_rng(77)
        radii = np.sqrt(fdtri(1, 3, ref_rng.random(320)))
        signs = np.sign(ref_rng.standard_normal((320, 1))[:, 0])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(np.sign(draws), signs)
        ulps = np.abs(np.abs(draws) - radii) / np.spacing(radii)
        assert ulps.max() <= self.ULP_TOLERANCE


class TestSampleDesignPoints:
    def _draw(self, seed=0, zeta=4.0, m=64, dim=2):
        density = ex.DesignDensity(dim, 4, 0.625)
        domain = ex.BoxDomain([0.0] * dim, [1.0] * dim)
        tau = np.full(dim, 0.5)
        return ex.sample_design_points(tau, zeta, m, density, domain,
                                       np.random.default_rng(seed))

    def test_density_values_match_definition_bit_exactly(self):
        draw = self._draw()
        density = ex.DesignDensity(2, 4, 0.625)
        expected = np.exp(2 * math.log(draw.zeta)
                          + density.log_pdf(draw.zeta * (draw.points - draw.tau)))
        assert np.array_equal(np.exp(draw.log_density), expected)
        assert (np.exp(draw.log_density) > 0.0).all() and np.isfinite(draw.log_density).all()

    def test_doubling_zeta_halves_offsets_exactly(self):
        # tau = 0 so points are the raw scaled offsets themselves and the
        # factor-two contraction is bit-exact by construction
        density = ex.DesignDensity(2, 4, 0.625)
        domain = ex.BoxDomain([-1.0, -1.0], [1.0, 1.0])
        a = ex.sample_design_points([0.0, 0.0], 4.0, 64, density, domain,
                                    np.random.default_rng(42))
        b = ex.sample_design_points([0.0, 0.0], 8.0, 64, density, domain,
                                    np.random.default_rng(42))
        assert np.array_equal(a.points / 2.0, b.points)

    def test_outside_points_kept_with_flag(self):
        draw = self._draw(zeta=0.5 + 1e-9, m=512)  # wide cloud, many leave the box
        outside = ~draw.inside
        assert outside.any()
        assert draw.points.shape == (512, 2)

    def test_median_radius_fraction(self):
        density = ex.DesignDensity(2, 4, 0.625)
        domain = ex.BoxDomain([0.0, 0.0], [1.0, 1.0])
        zeta = 5.0
        rng = np.random.default_rng(9)
        half = float(density.radius_ppf(0.5)) / zeta
        count, total = 0, 10000
        draw = ex.sample_design_points([0.5, 0.5], zeta, total, density, domain, rng)
        dist = np.linalg.norm(draw.points - draw.tau, axis=1)
        count = int(np.count_nonzero(dist <= half))
        assert abs(count / total - 0.5) <= 0.02


_BALL_DENSITY = ex.DesignDensity(2, 4, 1.0)
_UNIT_SQUARE = ex.BoxDomain([0.0, 0.0], [1.0, 1.0])


class TestVolumeEstimators:
    def _ball_draw(self, rng, m=16):
        return ex.sample_design_points([0.5, 0.5], 2.0, m, _BALL_DENSITY,
                                       _UNIT_SQUARE, rng)

    def test_zero_when_nothing_exceeds(self, rng):
        draw = self._ball_draw(rng)
        assert ex.mes_hat(np.zeros(draw.m), 1.0, draw) == 0.0

    def test_single_point_reciprocal_density(self, rng):
        draw = self._ball_draw(rng, m=1)
        values = np.array([2.0])
        expected = (1.0 / np.exp(draw.log_density[0])) if draw.inside[0] else 0.0
        assert ex.mes_hat(values, 1.0, draw) == pytest.approx(expected, rel=1e-12)

    def test_ball_indicator_unbiased(self):
        # synthetic field: indicator of the ball B((0.5, 0.5), 0.3) inside the unit square
        rng = np.random.default_rng(11)
        radius = 0.3
        target = math.pi * radius ** 2
        n = 20000
        estimates = np.empty(n)
        for i in range(n):
            draw = self._ball_draw(rng, m=8)
            dist = np.linalg.norm(draw.points - draw.tau, axis=1)
            values = np.where(dist <= radius, 1.0, -1.0)
            estimates[i] = ex.mes_hat(values, 0.0, draw)
        se = estimates.std(ddof=1) / math.sqrt(n)
        assert abs(estimates.mean() - target) < 4.0 * se

    def test_alpha_hat_reduces_to_mes_hat_for_unit_integrand(self, rng):
        draw = self._ball_draw(rng, m=32)
        values = rng.standard_normal(32) + 1.0
        b = 0.8
        assert ex.alpha_hat(np.ones(32), values, b, draw) == pytest.approx(
            ex.mes_hat(values, b, draw), rel=1e-12)

    def test_alpha_hat_linear_in_constant_integrand(self, rng):
        draw = self._ball_draw(rng, m=32)
        values = rng.standard_normal(32) + 1.0
        one = ex.alpha_hat(np.ones(32), values, 0.5, draw)
        three = ex.alpha_hat(np.full(32, 3.0), values, 0.5, draw)
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_alpha_hat_bounds_enforced(self, rng):
        draw = self._ball_draw(rng, m=4)
        with pytest.raises(IntegrandBoundsError):
            ex.alpha_hat(np.array([0.5, 1.0, 1.0, 2.5]), np.ones(4), 0.0, draw,
                         bounds=(1.0, 2.0))

    def test_guard_identity_indicator_implies_positive_volume(self):
        # any inside point above b also exceeds gamma = b - 1/b, so the
        # excursion-volume estimate cannot vanish when the indicator fires
        rng = np.random.default_rng(13)
        b = 3.0
        gamma = b - 1.0 / b
        for _ in range(200):
            draw = self._ball_draw(rng, m=8)
            values = rng.standard_normal(8) * 2.0 + 1.5
            if np.any((values > b) & draw.inside):
                assert ex.mes_hat(values, gamma, draw) > 0.0

    def test_rescaled_density_integrates_to_one(self):
        # change of variables: zeta^d k(zeta (t - tau)) over R^2, checked numerically
        density = ex.DesignDensity(2, 4, 0.625)
        zeta, tau = 3.0, np.array([0.4, 0.6])

        def radial(r):
            return 2 * math.pi * r * zeta ** 2 * math.exp(
                density.log_pdf(zeta * (np.array([tau[0] + r, tau[1]]) - tau))[0])

        total = 0.0
        for lo, hi in [(0.0, 1.0), (1.0, 50.0), (50.0, np.inf)]:
            part, _ = quad(radial, lo, hi, limit=200)
            total += part
        assert abs(total - 1.0) < 1e-6
