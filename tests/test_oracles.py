import math

import numpy as np
import pytest
from scipy import integrate

import excursim as ex
from excursim.errors import ConfigurationError, InsufficientReplicatesError


class TestCosineTruth:
    # published roundings of the closed form
    PUBLISHED = {3.0: 2.7e-3, 4.0: 7.2e-5, 5.0: 7.3e-7, 6.0: 2.8e-9,
                 7.0: 4.0e-12, 8.0: 2.2e-15}

    @pytest.mark.parametrize("b", sorted(PUBLISHED))
    def test_matches_published_rounding(self, b):
        assert ex.cosine_truth(b) == pytest.approx(self.PUBLISHED[b], rel=0.05)

    def test_formula_pieces(self):
        b = 3.0
        expected = float(ex.gaussian_tail(b)) + 3.0 / (8.0 * math.pi) * math.exp(-b * b / 2.0)
        assert ex.cosine_truth(b) == expected

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(23)
        n = 1_000_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sups = ex.cosine_sup_batch(x, y)
        b = 3.0
        p_hat = float(np.mean(sups > b))
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - ex.cosine_truth(b)) < 4.0 * se


class TestLogRiceTail:
    @pytest.mark.parametrize("b", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    def test_exact_for_the_cosine_process(self, b):
        # a cosine path upcrosses at most once on [0, 3/4], so Rice is exact
        expected = math.log(ex.cosine_truth(b))
        assert ex.log_rice_tail(b, 0.75, 1.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_finite_where_the_tail_underflows(self):
        b = 40.0
        assert ex.gaussian_tail(b) == 0.0
        log_crossings = 0.5 * math.log(2.0) - math.log(2.0 * math.pi) - 0.5 * b * b
        log_tail = float(ex.log_gaussian_tail(b))
        expected = log_crossings + math.log1p(math.exp(log_tail - log_crossings))
        assert ex.log_rice_tail(b, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("length, lambda2", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0)])
    def test_rejects_a_non_positive_length_or_moment(self, length, lambda2):
        with pytest.raises(ValueError):
            ex.log_rice_tail(5.0, length, lambda2)


class TestExpectedExcursionMeasure:
    def test_constant_model_is_plain_tail(self, smooth_model):
        assert ex.expected_excursion_measure(smooth_model, 5.0) == pytest.approx(
            float(ex.gaussian_tail(5.0)), rel=1e-12)

    def test_trend_model_matches_dblquad(self, trend_model):
        got = ex.expected_excursion_measure(trend_model, 6.0)
        oracle, _ = integrate.dblquad(
            lambda t2, t1: float(ex.gaussian_tail(6.0 - 0.1 * t1 - 0.1 * t2)),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-30, epsrel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-7)

    def test_deep_negative_level_gives_domain_measure(self, trend_model, smooth_model):
        for model in (smooth_model, trend_model):
            got = ex.expected_excursion_measure(model, -40.0)
            assert got == pytest.approx(model.domain.measure, rel=1e-10)


class TestCosinePath:
    # the exact supremum of X cos t + Y sin t, vectorized over paths

    def test_pure_cosine_component(self):
        assert ex.cosine_sup_batch(1.0, 0.0, 0.0, 0.75) == pytest.approx(1.0)
        # over the one-point interval {0} the supremum is the value f(0)
        assert ex.cosine_sup_batch(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_pure_sine_component(self):
        # maximizer pi/2 lies outside [0, 3/4]; right endpoint wins
        assert ex.cosine_sup_batch(0.0, 1.0, 0.0, 0.75) == pytest.approx(math.sin(0.75),
                                                                        rel=1e-12)

    def test_sup_matches_dense_grid(self, rng):
        grid = np.linspace(0.0, 0.75, 10000)
        x, y = rng.standard_normal((2, 200))
        grid_max = (np.outer(x, np.cos(grid)) + np.outer(y, np.sin(grid))).max(axis=1)
        sup = ex.cosine_sup_batch(x, y, 0.0, 0.75)
        assert sup.shape == (200,)
        assert (sup >= grid_max - 1e-12).all()
        assert (sup - grid_max < 1e-8).all()


class TestCosineGridTail:
    def test_dense_grid_recovers_interval_truth(self):
        grid = np.linspace(0.0, 0.75, 2048)
        for b in (3.0, 4.0):
            assert ex.cosine_grid_tail(b, grid) == pytest.approx(
                ex.cosine_truth(b), rel=1e-5)

    def test_grid_probability_below_truth(self):
        grid = np.linspace(0.0, 0.75, 8)
        for b in (3.0, 4.0, 5.0):
            assert ex.cosine_grid_tail(b, grid) < ex.cosine_truth(b)

    def test_relative_bias_grows_with_level(self):
        grid = np.linspace(0.0, 0.75, 8)
        biases = [1.0 - ex.cosine_grid_tail(b, grid) / ex.cosine_truth(b)
                  for b in (3.0, 4.0, 5.0)]
        assert biases[0] < biases[1] < biases[2]

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(29)
        grid = np.linspace(0.0, 0.75, 8)
        n = 500_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        vals = x[:, None] * np.cos(grid) + y[:, None] * np.sin(grid)
        p_hat = float(np.mean(vals.max(axis=1) > 3.0))
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - ex.cosine_grid_tail(3.0, grid)) < 4.0 * se


class TestCrudeGridMC:
    def test_certain_event(self, cosine_model, rng):
        report = ex.crude_grid_mc(cosine_model, -5.0, 8, 2000, rng)
        assert report.estimate == pytest.approx(1.0)

    def test_matches_exact_grid_probability(self, cosine_model):
        rng = np.random.default_rng(31)
        report = ex.crude_grid_mc(cosine_model, 3.0, 64, 1_000_000, rng)
        exact = ex.cosine_grid_tail(3.0, np.linspace(0.0, 0.75, 64))
        assert abs(report.estimate - exact) < 4.0 * report.std_err
        assert report.estimate <= ex.cosine_truth(3.0) + 4.0 * report.std_err

    def test_too_few_draws_rejected(self, cosine_model, rng):
        for n in (0, 1):
            with pytest.raises(InsufficientReplicatesError):
                ex.crude_grid_mc(cosine_model, 3.0, 8, n, rng)

    def test_grid_cap(self, smooth_model, rng):
        with pytest.raises(ConfigurationError):
            ex.crude_grid_mc(smooth_model, 3.0, 65, 100, rng)  # 65^2 > 4096

    def test_two_dimensional_smoke(self, smooth_model, rng):
        report = ex.crude_grid_mc(smooth_model, 2.0, 8, 20000, rng)
        assert 0.0 < report.estimate < 1.0
        assert report.m == 64
