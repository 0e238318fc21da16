import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import excursim as ex
from excursim.errors import InvalidLevelError, QuadratureError
from excursim.measure import _logsumexp, location_log_density, log_normalizing_integral


def _integral(model, gamma):
    return math.exp(log_normalizing_integral(model, gamma)[0])


class TestGammaLevel:
    def test_direct_formula(self):
        assert ex.gamma_level(2.0) == pytest.approx(1.5)
        assert ex.gamma_level(8.0) == pytest.approx(7.875)

    def test_boundary_and_below_rejected(self):
        for b in (1.0, 0.5, -3.0):
            with pytest.raises(InvalidLevelError):
                ex.gamma_level(b)


class TestNormalizingIntegral:
    def test_constant_field_fast_path_is_exact(self, smooth_model):
        # unit square, zero mean, unit variance: I = P(Z > 3) exactly
        value = _integral(smooth_model, 3.0)
        assert value == pytest.approx(float(ex.gaussian_tail(3.0)), rel=1e-14)
        _, info = log_normalizing_integral(smooth_model, 3.0)
        assert info.rule == "constant-fast-path"

    def test_cosine_domain_scales_by_measure(self, cosine_model):
        value = _integral(cosine_model, 2.0)
        assert value == pytest.approx(0.75 * float(ex.gaussian_tail(2.0)), rel=1e-14)

    @pytest.mark.parametrize("level,target", [(3.0, 1.9e-3), (8.0, 1.5e-15)])
    def test_linear_trend_quadrature_vs_dblquad(self, trend_model, level, target):
        got = _integral(trend_model, level)
        oracle, _ = integrate.dblquad(
            lambda t2, t1: float(ex.gaussian_tail(level - 0.1 * t1 - 0.1 * t2)),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-30, epsrel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-7)
        assert got == pytest.approx(target, rel=0.05)  # published rounding

    def test_log_integral_decreasing_in_gamma(self, trend_model):
        logs = [log_normalizing_integral(trend_model, g)[0] for g in (1.0, 2.0, 4.0, 7.0)]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_unresolvable_integrand_raises(self):
        # oscillation far beyond the refinement budget's resolution
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(),
                              mean=lambda p: 5.0 * np.sin(1e6 * p[:, 0]))
        with pytest.raises(QuadratureError):
            log_normalizing_integral(model, 2.0)

    def test_bounded_by_domain_measure_times_extremes(self, trend_model):
        gamma = 3.0
        value = _integral(trend_model, gamma)
        grid = np.random.default_rng(0).random((500, 2))
        tails = ex.marginal_tail(trend_model, grid, gamma)
        assert value <= 1.0 * float(ex.gaussian_tail(gamma - 0.2))
        assert tails.min() <= value <= tails.max() + 1e-12


class TestLogSumExp:
    def test_bit_equal_to_scipy(self):
        # 300 arrays: single elements, short and 4096-long ones, tied maxima,
        # rounded values with many ties, and the spreads the tail logs take
        rng = np.random.default_rng(41)
        for i in range(300):
            n = (1, 2, 5, 64, 700, 4096)[i % 6]
            values = rng.normal(-rng.uniform(0.0, 900.0), (1e-3, 1.0, 40.0, 300.0)[i % 4], n)
            if i % 3 == 0:
                values[rng.integers(0, n, max(1, n // 4))] = values.max()
            if i % 5 == 0:
                values = np.round(values)
            assert _logsumexp(values) == float(special.logsumexp(values)), i

    def test_non_finite_largest_term_is_the_result(self):
        assert _logsumexp(np.full(3, -np.inf)) == -np.inf
        assert _logsumexp(np.array([-np.inf, 2.0])) == 2.0
        assert _logsumexp(np.array([1.0, np.inf])) == np.inf
        assert math.isnan(_logsumexp(np.array([1.0, np.nan])))


class TestMeasureContext:
    def test_context_invariants(self, trend_model):
        ctx = ex.measure_context(trend_model, 4.0)
        assert ctx.gamma == pytest.approx(3.75)
        assert ctx.log_norm_integral == log_normalizing_integral(trend_model, ctx.gamma)[0]
        assert 0.0 < math.exp(ctx.log_norm_integral) <= trend_model.domain.measure

    def test_one_proposal_per_level(self, cosine_model, smooth_model, trend_model,
                                    rough_model):
        # constant marginals: one cell, the uniform law
        for model in (cosine_model, smooth_model):
            ctx = ex.measure_context(model, 4.0)
            assert ctx.grid_shape == (1,) * model.dimension
            assert ctx.cell_cum.tolist() == [1.0]
        # varying mean: 64 x 64 cells, every one positive
        for model in (trend_model, rough_model):
            ctx = ex.measure_context(model, 8.0)
            assert ctx.grid_shape == (64, 64)
            mass = np.exp(ctx.cell_log_mass)
            assert mass.sum() == pytest.approx(1.0, rel=1e-12)
            assert (mass > 0.0).all()
            assert ctx.cell_cum[-1] == 1.0 and (np.diff(ctx.cell_cum) > 0.0).all()

    def test_location_density_normalizes(self, trend_model):
        ctx = ex.measure_context(trend_model, 4.0)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x = (nodes + 1.0) / 2.0
        w = weights / 2.0
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        dens = np.exp(location_log_density(trend_model, ctx, pts))
        total = float(np.outer(w, w).ravel() @ dens)
        assert abs(total - 1.0) < 1e-6


class TestSampleTau:
    def test_uniform_when_marginals_constant(self, cosine_model, smooth_model):
        ctx = ex.measure_context(cosine_model, 4.0)
        draws = ex.sample_tau(cosine_model, ctx, np.random.default_rng(3), size=10000)
        stat = stats.kstest(draws[:, 0] / 0.75, "uniform")
        assert stat.pvalue > 0.01
        # one cell draws no cell index: the stream goes as domain.sample_uniform
        for model in (cosine_model, smooth_model):
            ctx = ex.measure_context(model, 4.0)
            for size in (1, 79):
                tau = ex.sample_tau(model, ctx, np.random.default_rng(4), size=size)
                uniform = model.domain.sample_uniform(np.random.default_rng(4), size)
                assert tau.tobytes() == uniform.tobytes()

    def test_trend_draws_pull_toward_high_mean_corner(self, trend_model, rough_model):
        for model in (trend_model, rough_model):
            ctx = ex.measure_context(model, 8.0)
            draws = ex.sample_tau(model, ctx, np.random.default_rng(5), size=10000)
            for axis in range(2):
                coord = draws[:, axis]
                se = coord.std(ddof=1) / math.sqrt(coord.size)
                assert coord.mean() > 0.5 + 4.0 * se

    def test_grid_sampler_agrees_on_mean_shift(self, trend_model):
        # the grid is the only proposal; a second stream sees the same shift
        ctx = ex.measure_context(trend_model, 8.0)
        assert ctx.grid_shape == (64, 64)
        draws = ex.sample_tau(trend_model, ctx, np.random.default_rng(6), size=10000)
        for axis in range(2):
            coord = draws[:, axis]
            se = coord.std(ddof=1) / math.sqrt(coord.size)
            assert coord.mean() > 0.5 + 4.0 * se

    def test_scalar_draw_shape_and_support(self, trend_model):
        # a single draw keeps the (size, d) shape
        ctx = ex.measure_context(trend_model, 4.0)
        tau = ex.sample_tau(trend_model, ctx, np.random.default_rng(7), size=1)
        assert tau.shape == (1, 2)
        assert trend_model.domain.contains(tau)[0]


class TestTruncatedTail:
    def test_all_outputs_strictly_exceed_threshold(self, rng):
        for gamma in (-2.0, 0.0, 3.0, 8.0, 20.0):
            draws = ex.sample_truncated_tail(0.0, 1.0, gamma, rng, size=5000)
            assert (draws > gamma).all()

    def test_very_low_threshold_matches_unconditioned_moments(self, rng):
        draws = ex.sample_truncated_tail(0.0, 1.0, -30.0, rng, size=100000)
        assert abs(draws.mean()) < 4.0 / math.sqrt(draws.size)
        assert abs(draws.var(ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / draws.size)

    def test_extreme_threshold_mean_matches_mills_ratio(self, rng):
        c = 8.0
        draws = ex.sample_truncated_tail(0.0, 1.0, c, rng, size=100000)
        target = stats.norm.pdf(c) / float(ex.gaussian_tail(c))  # ~8.1214
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 4.0 * se

    def test_location_scale_transformation(self, rng):
        draws = ex.sample_truncated_tail(2.0, 3.0, 9.5, rng, size=50000)
        assert (draws > 9.5).all()
        c = (9.5 - 2.0) / 3.0
        target = 2.0 + 3.0 * stats.norm.pdf(c) / float(ex.gaussian_tail(c))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 4.0 * se

    def test_distribution_ks_moderate_threshold(self, rng):
        c = 3.0
        draws = ex.sample_truncated_tail(0.0, 1.0, c, rng, size=20000)
        log_tail_c = float(ex.log_gaussian_tail(c))

        def cdf(x):
            return 1.0 - np.exp(ex.log_gaussian_tail(x) - log_tail_c)

        stat = stats.kstest(draws, cdf)
        assert stat.statistic < 0.02

    def test_one_law_per_draw(self, rng):
        # thresholds on both sides of the switch between the two samplers
        n = 20000
        mu0 = np.repeat([0.0, 2.0], n)
        sigma0 = np.repeat([1.0, 3.0], n)
        draws = ex.sample_truncated_tail(mu0, sigma0, 3.0, rng, size=2 * n)
        assert draws.shape == (2 * n,) and (draws > 3.0).all()
        for half, mu, sigma in ((draws[:n], 0.0, 1.0), (draws[n:], 2.0, 3.0)):
            c = (3.0 - mu) / sigma
            target = mu + sigma * stats.norm.pdf(c) / float(ex.gaussian_tail(c))
            se = half.std(ddof=1) / math.sqrt(n)
            assert abs(half.mean() - target) < 4.0 * se

    def test_scalar_draw(self, rng):
        # scalar mu0 and sigma0 with one draw keep the (size,) shape
        value = ex.sample_truncated_tail(0.0, 1.0, 5.0, rng, size=1)
        assert value.shape == (1,) and value[0] > 5.0

    @pytest.mark.parametrize("mu0, sigma0, gamma", [
        (math.nan, 1.0, 3.0), (0.0, math.nan, 3.0), (0.0, 1.0, math.nan),
        (-math.inf, 1.0, 3.0), (0.0, 1.0, math.inf), (np.array([0.0, math.nan]), 1.0, 3.0)])
    def test_non_finite_threshold_raises_instead_of_looping(self, rng, mu0, sigma0, gamma):
        with pytest.raises(ValueError, match="threshold"):
            ex.sample_truncated_tail(mu0, sigma0, gamma, rng, size=2)

