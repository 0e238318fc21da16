import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial.distance import cdist

import excursim as ex
import excursim.field as field
from excursim.errors import ModelEvaluationError, SingularModelError


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

class TestBoxDomain:
    def test_measure_and_contains(self):
        box = ex.BoxDomain([0.0, -1.0], [2.0, 1.0])
        assert box.dimension == 2
        assert box.measure == pytest.approx(4.0)
        assert box.contains([[1.0, 0.0]])[0]
        assert box.contains([[0.0, -1.0]])[0]  # boundary is inside
        assert not box.contains([[2.1, 0.0]])[0]

    def test_rejects_bad_corners(self):
        with pytest.raises(ValueError):
            ex.BoxDomain([0.0], [0.0])
        with pytest.raises(ValueError):
            ex.BoxDomain([0.0, 0.0], [1.0])

    def test_uniform_draws_inside(self, rng):
        box = ex.BoxDomain([0.0, 0.5], [1.0, 2.0])
        draws = box.sample_uniform(rng, 500)
        assert draws.shape == (500, 2)
        assert box.contains(draws).all()


# ---------------------------------------------------------------------------
# Regularity parameters
# ---------------------------------------------------------------------------

class TestRegularityParams:
    def test_holder_budget_enforced(self):
        with pytest.raises(ValueError):
            ex.RegularityParams(alpha1=2.0, c1=1.0, beta0=0.5, beta1=1.0)

    def test_type2_needs_profile_constants(self):
        with pytest.raises(ValueError):
            ex.RegularityParams(alpha1=1.0, c1=1.0, beta0=0.0, beta1=1.0,
                                constant_std=False)

    def test_builtin_kernels_carry_correct_params(self):
        sq = ex.SquaredExponential(1.0).regularity
        assert (sq.alpha1, sq.beta0, sq.beta1) == (2.0, 1.0, 1.0)
        assert sq.c1 == pytest.approx(1.0)
        exp = ex.Exponential(4.0).regularity
        assert (exp.alpha1, exp.beta0, exp.beta1) == (1.0, 0.0, 1.0)
        assert exp.c1 == pytest.approx(0.25)
        cos = ex.CosineProcess().regularity
        assert cos.alpha1 == 2.0 and cos.c1 == pytest.approx(0.5)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("ell", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("kernel", [ex.SquaredExponential, ex.Exponential,
                                        lambda ell: ex.PowerExponential(1.5, ell)],
                             ids=["sqexp", "exponential", "powerexp"])
    def test_kernel_length_must_be_finite_and_positive(self, kernel, ell):
        with pytest.raises(ValueError, match="ell must be finite and positive"):
            kernel(ell)

    @pytest.mark.parametrize("coeffs, intercept", [([math.nan, 0.1], 0.0),
                                                   ([0.1, -math.inf], 0.0),
                                                   ([0.1, 0.1], math.nan)],
                             ids=["coeff-nan", "coeff-inf", "intercept-nan"])
    def test_linear_mean_must_be_finite(self, coeffs, intercept):
        with pytest.raises(ValueError, match="coeffs and intercept must be finite"):
            ex.LinearMean(coeffs, intercept)

    @pytest.mark.parametrize("which, value, message", [
        ("mean", math.nan, "mean must be finite"),
        ("mean", -math.inf, "mean must be finite"),
        ("std", math.nan, "std must be finite and strictly positive"),
        ("std", math.inf, "std must be finite and strictly positive"),
        ("std", 0.0, "std must be finite and strictly positive"),
    ], ids=["mean-nan", "mean-inf", "std-nan", "std-inf", "std-zero"])
    def test_constant_mean_and_std_must_be_finite(self, which, value, message):
        with pytest.raises(ValueError, match=message):
            ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(), **{which: value})


# ---------------------------------------------------------------------------
# Covariance assembly
# ---------------------------------------------------------------------------

class TestCovMatrix:
    def test_duplicate_points_give_ones(self, smooth_model):
        cov = ex.cov_matrix(smooth_model, [[0.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(cov, np.ones((2, 2)))

    def test_sqexp_unit_separation(self, smooth_model):
        cov = ex.cov_matrix(smooth_model, [[0.0, 0.0], [1.0, 0.0]])
        assert cov[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_cosine_offdiagonal_matches_xy_expansion(self, cosine_model):
        # Cov(X cos s + Y sin s, X cos t + Y sin t) with X,Y independent
        # standard normals reduces to cos(s)cos(t) + sin(s)sin(t).
        s, t = 0.0, 0.75
        expected = math.cos(s) * math.cos(t) + math.sin(s) * math.sin(t)
        cov = ex.cov_matrix(cosine_model, [[s], [t]])
        assert cov[0, 1] == pytest.approx(expected, rel=1e-12)
        assert cov[0, 1] == pytest.approx(math.cos(0.75), rel=1e-12)

    def test_exact_symmetry_random_points(self, trend_model, rng):
        for _ in range(10):
            pts = rng.random((17, 2))
            cov = ex.cov_matrix(trend_model, pts)
            assert np.array_equal(cov, cov.T)

    def test_pairwise_dist_matches_difference_tensor(self, rng):
        # reference: the explicit (n, m, d) difference tensor, and cdist
        from excursim.field import _pairwise_dist

        for d in (1, 2, 3):
            a, b = rng.random((33, d)), rng.random((17, d))
            diff = a[:, None, :] - b[None, :, :]
            assert np.array_equal(_pairwise_dist(a, b), np.sqrt(np.sum(diff * diff, axis=-1)))
            assert np.array_equal(_pairwise_dist(a, b), cdist(a, b))

    @pytest.mark.parametrize("kernel, d", [(ex.SquaredExponential(0.7), 2),
                                           (ex.Exponential(4.0), 2),
                                           (ex.PowerExponential(1.5, 0.5), 3),
                                           (ex.CosineProcess(), 1)])
    def test_kernel_writes_into_out(self, kernel, d, rng):
        a, b = rng.random((7, d)), rng.random((5, d))
        buf = np.full((7, 5), np.nan)
        assert kernel(a, b, out=buf) is buf
        assert np.array_equal(buf, kernel(a, b))

    @pytest.mark.parametrize("kernel, d", [(ex.SquaredExponential(0.7), 2),
                                           (ex.Exponential(4.0), 2),
                                           (ex.PowerExponential(1.5, 0.5), 3),
                                           (ex.CosineProcess(), 1)])
    def test_stacked_kernel_matches_each_pair(self, kernel, d, rng):
        a, b = rng.random((4, 7, d)), rng.random((4, 5, d))
        buf = np.full((4, 7, 5), np.nan)
        assert kernel(a, b, out=buf) is buf
        for i in range(4):
            assert np.array_equal(buf[i], kernel(a[i], b[i]))

    @pytest.mark.parametrize("ell", [1.0, 0.3])
    @pytest.mark.parametrize("kernel", [ex.SquaredExponential, ex.Exponential,
                                        lambda ell: ex.PowerExponential(1.5, ell)],
                             ids=["sqexp", "exponential", "powerexp1.5"])
    def test_one_dimensional_kernel_matches_cdist_reference(self, kernel, ell, rng):
        # reference: distances from cdist, then the kernel's own steps
        kernel = kernel(ell)

        def reference(a, b):
            h = cdist(a, b) / ell
            if kernel.shape == 2.0:
                h = h * h
            elif kernel.shape != 1.0:
                h = h ** kernel.shape
            return np.exp(-h)

        size, n = 3, 40
        pts = 0.4 + rng.standard_t(3, (size, n, 1)) / 20.0
        taus = rng.random((size, 1, 1))
        pts[:, 5] = taus[:, 0]  # tau itself is one of the points
        rows = np.concatenate([pts, taus], axis=1)
        assert np.array_equal(kernel(rows[0], pts[0]), reference(rows[0], pts[0]))
        stacked = kernel(rows, pts, out=np.full((size, n + 1, n), np.nan))
        for i in range(size):
            assert np.array_equal(stacked[i], reference(rows[i], pts[i]))

    def test_positive_semidefinite_random_points(self, smooth_model, rng):
        pts = rng.random((40, 2))
        eig = np.linalg.eigvalsh(ex.cov_matrix(smooth_model, pts))
        assert eig.min() >= -1e-10 * eig.max()

    def test_nonfinite_model_function_rejected(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(),
                              mean=lambda p: np.where(p[:, 0] > 0.5, np.nan, 0.0))
        with pytest.raises(ModelEvaluationError):
            model.mean_at([[0.75]])


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

class TestFactorPsd:
    def test_identity_needs_no_ridge(self):
        lower = ex.factor_psd(np.eye(4))
        assert np.array_equal(lower, np.eye(4))

    def test_rank_one_matrix_factors_at_rank_one(self):
        a = np.ones((2, 2))
        factor = ex.factor_psd(a)
        assert factor.shape == (2, 1)
        assert np.max(np.abs(factor @ factor.T - a)) <= 1e-12

    def test_smooth_conditional_covariance_is_low_rank(self):
        # sqexp conditioned on one value at m=320: numerically low-rank
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        rng = np.random.default_rng(5)
        pts = 0.4 + rng.standard_t(3, (320, 1)) / 20.0
        _, cov, _ = ex.conditional_moments(model, [0.4], 6.0, pts)
        factor = ex.factor_psd(cov)
        assert factor.shape[0] == 320 and factor.shape[1] < 40
        err = np.max(np.abs(factor @ factor.T - cov))
        assert err <= 1e-12 * np.max(np.diag(cov))

    def test_zero_rows_get_zero_factor_rows(self):
        a = np.zeros((4, 4))
        a[np.ix_([0, 2, 3], [0, 2, 3])] = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
        factor = ex.factor_psd(a)
        assert factor.shape == (4, 3)
        assert np.all(factor[1] == 0.0)
        assert np.max(np.abs(factor @ factor.T - a)) <= 1e-12

    def test_indefinite_matrix_raises(self):
        with pytest.raises(SingularModelError):
            ex.factor_psd(np.diag([1.0, -1.0]))

    def test_indefinite_matrix_with_zero_residual_diagonal_raises(self):
        # dpstrf stops at rank 1 with a zero residual diagonal, so only the
        # off-diagonal ones of the residual show that the matrix is indefinite
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SingularModelError):
            ex.factor_psd(a)

    def test_indefinite_matrix_with_zero_residual_row_sums_raises(self):
        # dpstrf stops at rank 1 with a zero residual diagonal, and every
        # residual row sums to zero, so a constant probe vector would pass it
        a = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, -1.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0, -1.0],
                      [0.0, -1.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0, 1.0, 0.0]])
        assert np.all(a.sum(axis=1) == a[:, 0])
        with pytest.raises(SingularModelError):
            ex.factor_psd(a)

    def test_zero_matrix_factors_exactly(self):
        lower = ex.factor_psd(np.zeros((3, 3)))
        assert not lower.any()

    @pytest.mark.parametrize("full_rank", [True, False], ids=["full_rank", "low_rank"])
    def test_factor_is_bit_equal_for_any_memory_layout(self, full_rank, rng):
        n = 60
        if full_rank:
            b = rng.standard_normal((n, n))
            a = b @ b.T / n + np.eye(n)
            a = 0.5 * (a + a.T)
        else:
            model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
            _, a, _ = ex.conditional_moments(model, [0.4], 6.0,
                                             0.4 + rng.standard_t(3, (n, 1)) / 20.0)
            a = a.copy()
        assert np.array_equal(a, a.T)
        padded = np.zeros((2 * n, 3 * n))
        padded[::2, ::3] = a
        views = [a, np.asfortranarray(a), padded[::2, ::3], padded[::2, ::3].T]
        factors = [ex.factor_psd(view) for view in views]
        assert (factors[0].shape[1] == n) == full_rank
        for factor in factors[1:]:
            assert np.array_equal(factor, factors[0])
        if full_rank:
            assert factors[0].shape == (n, n)
            assert np.max(np.abs(factors[0] @ factors[0].T - a)) <= 1e-12 * np.max(np.abs(a))

    def test_reconstruction_on_random_psd(self, rng):
        for n in (5, 40, 200):
            b = rng.standard_normal((n, n))
            a = b @ b.T / n
            lower = ex.factor_psd(a)
            err = np.max(np.abs(lower @ lower.T - a))
            assert err <= 1e-8 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# Joint sampling
# ---------------------------------------------------------------------------

class TestSampleJoint:
    def test_same_seed_same_draw(self, smooth_model):
        pts = [[0.1, 0.2], [0.8, 0.4], [0.5, 0.5]]
        a = ex.sample_joint(smooth_model, pts, np.random.default_rng(7))
        b = ex.sample_joint(smooth_model, pts, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_zero_mean_law_of_large_numbers(self, smooth_model):
        rng = np.random.default_rng(11)
        n = 20000
        draws = np.array([ex.sample_joint(smooth_model, [[0.3, 0.3]], rng)[0]
                          for _ in range(n)])
        assert abs(draws.mean()) < 4.0 / math.sqrt(n)

    def test_cosine_pair_correlation(self, cosine_model):
        rng = np.random.default_rng(13)
        n = 20000
        draws = np.array([ex.sample_joint(cosine_model, [[0.0], [0.75]], rng)
                          for _ in range(n)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        rho = math.cos(0.75)
        tol = 4.0 * (1.0 - rho ** 2) / math.sqrt(n)
        assert abs(corr - rho) < tol


# ---------------------------------------------------------------------------
# Conditional law
# ---------------------------------------------------------------------------

class TestConditional:
    def test_conditioning_point_reproduced_bit_exactly(self, cosine_model, rng):
        value = 5.123456789
        out = ex.sample_conditional(cosine_model, [0.3], value, [[0.3]], rng)
        assert out[0] == value

    def test_conditioning_point_inside_larger_set(self, smooth_model, rng):
        tau = [0.25, 0.75]
        value = 3.5
        pts = [[0.1, 0.1], [0.25, 0.75], [0.9, 0.2]]
        out = ex.sample_conditional(smooth_model, tau, value, pts, rng)
        assert out[1] == value

    def test_mean_matches_bivariate_regression_formula(self, trend_model):
        # independent oracle: mu(t) + sigma(t) r(t, tau) (v - mu(tau)) / sigma(tau)
        tau = np.array([0.2, 0.3])
        t = np.array([0.6, 0.5])
        v = 4.0
        r = math.exp(-float(np.sum((t - tau) ** 2)))
        mu_t = 0.1 * t[0] + 0.1 * t[1]
        mu_tau = 0.1 * tau[0] + 0.1 * tau[1]
        expected = mu_t + r * (v - mu_tau)
        mean, cov, _ = ex.conditional_moments(trend_model, tau, v, [t])
        assert mean[0] == pytest.approx(expected, rel=1e-12)
        assert cov[0, 0] == pytest.approx(1.0 - r ** 2, rel=1e-12)

    def test_rank_deficient_draw_consumes_rank_normals(self, cosine_model):
        # given f(tau) = v the cosine field is v cos(t - tau) + W sin(t - tau)
        # with one standard normal W, so a draw consumes exactly one normal
        t = np.array([0.1, 0.2, 0.4, 0.6, 0.7])
        rng = np.random.default_rng(19)
        out = ex.sample_conditional(cosine_model, [0.3], 5.0, t[:, None], rng)
        replay = np.random.default_rng(19)
        w = replay.standard_normal()
        assert rng.bit_generator.state == replay.bit_generator.state
        shift = out - 5.0 * np.cos(t - 0.3)
        expected = w * np.sin(t - 0.3)
        assert (np.allclose(shift, expected, rtol=0.0, atol=1e-12)
                or np.allclose(shift, -expected, rtol=0.0, atol=1e-12))

    def test_rank_deficient_empirical_covariance(self):
        # sqexp at eight close points given f(tau): covariance of rank < 8
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        tau, value = [0.5], 4.0
        pts = np.linspace(0.2, 0.8, 8)[:, None]
        mean, cov, _ = ex.conditional_moments(model, tau, value, pts)
        factor = ex.factor_psd(cov)
        assert factor.shape[1] < 8
        rng = np.random.default_rng(23)
        n = 20000
        draws = np.array([ex.sample_conditional(model, tau, value, pts, rng)
                          for _ in range(n)])
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5.0 * sd / math.sqrt(n))
        emp = np.cov(draws, rowvar=False)
        # standard error of a sample covariance: sqrt((c_ii c_jj + c_ij^2) / n)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(emp - cov) <= 5.0 * se)

    @pytest.mark.parametrize("std", [1.0, 2.5, lambda p: 1.0 + 0.5 * p[:, 0]])
    @pytest.mark.parametrize("kernel, d", [(ex.SquaredExponential(), 1),
                                           (ex.SquaredExponential(), 2),
                                           (ex.Exponential(4.0), 2),
                                           (ex.PowerExponential(1.5), 2),
                                           (ex.CosineProcess(), 1)])
    def test_covariance_matches_reference_and_is_symmetric(self, kernel, d, std, rng):
        # reference: the covariance built from whole products, then symmetrized
        model = ex.FieldModel(ex.BoxDomain(np.zeros(d), np.ones(d)), kernel, std=std)
        pts, tau = rng.random((30, d)), rng.random((1, d))
        _, cov, _ = ex.conditional_moments(model, tau, 4.0, pts)
        sig = model.std_at(pts)
        proj = sig * model.corr(pts, tau)[:, 0]
        ref = model.corr(pts, pts) * np.outer(sig, sig) - np.outer(proj, proj)
        assert np.array_equal(cov, 0.5 * (ref + ref.T))
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("kernel, full_rank", [(ex.Exponential(), True),
                                                   (ex.SquaredExponential(), False),
                                                   (ex.CosineProcess(), False)])
    def test_buffers_give_bit_equal_results(self, kernel, full_rank, rng):
        # repeated calls give the same bits and leave the covariance as it was
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), kernel)
        n = 60
        pts = 0.4 + rng.standard_t(3, (n, 1)) / 20.0
        mean, cov, mask = ex.conditional_moments(model, [0.4], 5.0, pts)
        again, cov_again, mask_again = ex.conditional_moments(model, [0.4], 5.0, pts)
        assert np.array_equal(again, mean) and np.array_equal(mask_again, mask)
        assert np.array_equal(cov_again, cov)

        before = cov.copy()
        factor = ex.factor_psd(cov)
        assert np.array_equal(ex.factor_psd(cov), factor)
        assert np.array_equal(cov, before)
        assert (factor.shape[1] == n) == full_rank

    @pytest.mark.parametrize("kernel, d, std, size, m", [
        (ex.SquaredExponential(), 1, 1.0, 12, 30),
        (ex.SquaredExponential(), 2, 2.5, 12, 30),
        (ex.Exponential(4.0), 2, 1.0, 12, 30),
        (ex.PowerExponential(1.5), 2, lambda p: 1.0 + 0.5 * p[:, 0], 12, 30),
        (ex.CosineProcess(), 1, 1.0, 12, 30),
        # blocks of one at m >= 256, as the engine draws the dense models there
        (ex.PowerExponential(1.5), 1, 1.0, 1, 320),
        (ex.SquaredExponential(), 2, 1.0, 1, 256)],
        ids=["kernel0-1-1.0", "kernel1-2-2.5", "kernel2-2-1.0", "kernel3-2-<lambda>",
             "kernel4-1-1.0", "powerexp1.5-block-of-one-320", "sqexp-2d-block-of-one-256"])
    def test_block_matches_single_draws(self, kernel, d, std, size, m):
        # reference: one _conditional_draw per replicate, on the same stream
        from excursim.field import _conditional_draw, _conditional_draw_block

        model = ex.FieldModel(ex.BoxDomain(np.zeros(d), np.ones(d)), kernel, std=std,
                              mean=ex.LinearMean(np.full(d, 0.1)))
        setup = np.random.default_rng(3)
        taus = setup.random((size, d))
        points = taus[:, None, :] + setup.standard_t(3, (size, m, d)) / 20.0
        pin = min(4, size - 1)
        points[pin, 7] = taus[pin]  # a design point at tau is pinned to f(tau)
        values_at_tau = 4.0 + setup.random(size)

        values, rank, errors = _conditional_draw_block(model, taus, values_at_tau, points,
                                                       np.random.default_rng(9))
        rng = np.random.default_rng(9)
        single = [_conditional_draw(model, taus[i], values_at_tau[i], points[i], rng)
                  for i in range(size)]
        assert errors == {}
        assert rank.tolist() == [r for _, r in single]
        assert np.allclose(values, [v for v, _ in single], rtol=1e-12, atol=1e-12)
        assert values[pin, 7] == values_at_tau[pin]

    @pytest.mark.parametrize("kernel, full_rank", [
        pytest.param(ex.SquaredExponential(), False, id="sqexp"),
        pytest.param(ex.Exponential(), True, id="exponential")])
    def test_steady_state_draw_allocates_no_square_matrix(self, kernel, full_rank):
        # one pivoted Cholesky that stops at a low rank for sqexp and runs to
        # full rank for exponential, each drawn as the engine draws a dense
        # replicate at m >= 256: a block of one
        from excursim.field import _conditional_draw_block

        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), kernel)
        m = 320
        rng = np.random.default_rng(5)
        pts = 0.4 + rng.standard_t(3, (1, m, 1)) / 20.0
        taus, values_at_tau = np.array([[0.4]]), np.array([6.0])
        _conditional_draw_block(model, taus, values_at_tau, pts, rng)  # allocates the buffers
        # the same n again, then a smaller one, as inside-only draws ask for
        for n in (m, m - 20):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _, rank, _ = _conditional_draw_block(model, taus, values_at_tau, pts[:, :n], rng)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert (rank[0] == n) == full_rank
            assert peak < 0.5 * 8 * m * m

    def test_only_rows_short_of_full_rank_are_probed(self, monkeypatch):
        # row 0 has an exponential covariance (full rank), row 1 a sqexp one
        # (low rank): a kernel called pair by pair picks one from the points
        from excursim.field import _conditional_draw_block

        class SplitKernel:
            def __call__(self, a, b, out=None):
                kernel = ex.Exponential() if a[0, 0] < 1.5 else ex.SquaredExponential()
                return kernel(a, b, out=out)

        model = ex.FieldModel(ex.BoxDomain([0.0], [3.0]), SplitKernel())
        m = 30
        setup = np.random.default_rng(4)
        taus = np.array([[0.4], [2.4]])
        points = taus[:, None, :] + setup.standard_t(3, (2, m, 1)) / 20.0
        values_at_tau = np.array([4.0, 5.0])

        def draw(rows, rng):
            return _conditional_draw_block(model, taus[rows], values_at_tau[rows], points[rows],
                                           rng)

        seen = []
        probe = field._residual_errors

        def counting(a, lt, piv, ranks):
            seen.append((a.copy(), list(ranks)))
            return probe(a, lt, piv, ranks)

        monkeypatch.setattr(field, "_residual_errors", counting)
        rng = np.random.default_rng(9)
        values, rank, errors = draw(slice(None), rng)
        assert errors == {} and rank[0] == m and rank[1] < m
        assert len(seen) == 1 and seen[0][1] == [rank[1]]
        _, cov, _ = ex.conditional_moments(model, taus[1], values_at_tau[1], points[1])
        assert np.array_equal(seen[0][0], cov[None])

        # under a negative tolerance every probed row drops: only the low-rank one
        monkeypatch.setattr(field, "_INDEFINITE_TOL", -1.0)
        rng = np.random.default_rng(9)
        values, rank, errors = draw(slice(None), rng)
        assert list(errors) == [1] and isinstance(errors[1], SingularModelError)
        assert rank.tolist() == [m, 0] and np.isnan(values[1]).all()
        single = np.random.default_rng(9)
        alone, alone_rank, _ = draw(slice(0, 1), single)
        assert alone_rank.tolist() == [m]
        assert np.array_equal(values[0], alone[0])
        assert rng.bit_generator.state == single.bit_generator.state

    def test_buffer_pair_serves_a_smaller_n_from_the_same_memory(self):
        from excursim.field import _block_buffer_pair

        assembly, work = _block_buffer_pair(1, 300)
        small_assembly, small_work = _block_buffer_pair(1, 280)
        assert small_assembly.shape == (1, 281, 280) and small_work.shape == (1, 280, 280)
        assert np.shares_memory(assembly, small_assembly)
        assert np.shares_memory(work, small_work)
        for view in (assembly, work, small_assembly, small_work):
            assert view.flags.c_contiguous
        assert small_work[0].T.flags.f_contiguous  # the layout LAPACK factors in place

    def test_probe_and_mask_are_prefixes_of_one_cached_array(self, monkeypatch):
        from excursim.field import _probe, _strict_upper

        monkeypatch.setattr(field, "_prefix_cache", {})
        for n in (1, 3, 5, 40, 257, 320, 600, 40):  # 600 grows both caches
            probe = _probe(n)
            assert np.array_equal(probe, np.random.default_rng(0).uniform(0.5, 1.5, n))
            assert not probe.flags.writeable
            assert np.array_equal(_strict_upper(n), np.triu(np.ones((n, n), dtype=bool), 1))
        assert field._prefix_cache["probe"].shape == (600,)

    def test_threads_keep_their_own_buffers(self, smooth_model):
        point_sets = [np.random.default_rng(i).random((50, 2)) for i in range(40)]

        def draw(i):
            return ex.sample_conditional(smooth_model, [0.5, 0.5], 4.0, point_sets[i],
                                         np.random.default_rng(i))

        serial = [draw(i) for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(draw, i) for i in range(40)]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_cosine_conditional_variance_empirical(self, cosine_model):
        rng = np.random.default_rng(17)
        n = 20000
        draws = np.array([ex.sample_conditional(cosine_model, [0.0], 5.0, [[0.5]], rng)[0]
                          for _ in range(n)])
        target_var = 1.0 - math.cos(0.5) ** 2
        se_var = target_var * math.sqrt(2.0 / n)
        assert abs(draws.var(ddof=1) - target_var) < 4.0 * se_var
        target_mean = math.cos(0.5) * 5.0
        assert abs(draws.mean() - target_mean) < 4.0 * math.sqrt(target_var / n)


def _inside_draws(count: int):
    """(tau, f(tau), inside points) of ``count`` m = 320 replicates of the
    1-d unit sqexp model at b = 6, drawn as the engine draws them."""
    model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
    ctx, zeta = ex.measure_context(model, 6.0), ex.cluster_scale(model, 6.0)
    density = ex.DesignDensity(1)
    draws = []
    for i in range(count):
        rng = np.random.default_rng((67, i))
        tau = ex.sample_tau(model, ctx, rng, size=1)
        value = ex.sample_truncated_tail(model.mean_at(tau), model.std_at(tau), ctx.gamma, rng,
                                         size=1)
        design = ex.sample_design_points(tau[0], zeta, 320, density, model.domain, rng)
        draws.append((tau[0], float(value[0]), design.points[design.inside]))
    return draws


def _as_block(draws, spread=None):
    """(taus, values_at_tau, points (B, m, 1), inside (B, m)) of a block whose
    row i holds the inside points of ``draws[i]`` in order, at m = largest
    count + 12 slots; the other slots hold points outside T, at positions
    from ``spread`` (a Generator) or after the inside points."""
    m = max(len(points) for _, _, points in draws) + 12
    taus = np.array([[tau[0]] for tau, _, _ in draws])
    values_at_tau = np.array([value for _, value, _ in draws])
    points = np.full((len(draws), m, 1), 1.5)
    inside = np.zeros((len(draws), m), dtype=bool)
    for i, (_, _, at) in enumerate(draws):
        slots = (np.sort(spread.choice(m, len(at), replace=False)) if spread is not None
                 else np.arange(len(at)))
        inside[i, slots] = True
        points[i, slots] = at
    return taus, values_at_tau, points, inside


def _row_factor(factor, rank, inside, i):
    """F_i (n_i, rank_i) of row i of a :func:`field._column_factor` block."""
    return factor[i, :rank[i], :np.count_nonzero(inside[i])].T


class TestColumnFactor:
    # kernel columns draw the field of 1-d shape-2 kernels, a block at a time

    @pytest.mark.parametrize("kernel, d, qualifies", [
        (ex.SquaredExponential(), 1, True),
        (ex.PowerExponential(2.0, 0.5), 1, True),
        (ex.CosineProcess(), 1, True),
        (ex.Exponential(), 1, False),
        (ex.PowerExponential(1.5), 1, False),
        (ex.SquaredExponential(), 2, False),
        (type("Subclass", (ex.SquaredExponential,), {})(), 1, False),
        (lambda a, b, out=None: ex.SquaredExponential()(a, b, out=out), 1, False)])
    def test_route_is_set_by_the_model(self, kernel, d, qualifies):
        model = ex.FieldModel(ex.BoxDomain(np.zeros(d), np.ones(d)), kernel,
                              regularity=ex.SquaredExponential().regularity)
        assert field._has_low_rank_columns(model) == qualifies

    @pytest.mark.parametrize("kernel, std", [
        pytest.param(ex.SquaredExponential(), 1.0, id="sqexp"),
        pytest.param(ex.CosineProcess(), 1.0, id="cosine"),
        pytest.param(ex.SquaredExponential(), lambda p: 1.0 + 0.5 * p[:, 0], id="sqexp-std"),
        pytest.param(ex.PowerExponential(2.0, 0.5), 2.5, id="powerexp-2")])
    def test_factor_reproduces_the_conditional_moments(self, kernel, std):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), kernel, std=std,
                              mean=ex.LinearMean([0.1]))
        draws = _inside_draws(4)
        block = _as_block(draws, spread=np.random.default_rng(69))
        mean, factor, rank, live, errors, dense = field._column_factor(model, *block)
        assert errors == {} and dense == [] and np.array_equal(live, block[3])
        assert not factor[np.arange(factor.shape[1]) >= rank[:, None]].any()
        for i, (tau, value, points) in enumerate(draws):
            c_mean, c_factor = mean[i, :len(points)], _row_factor(factor, rank, live, i)
            d_mean, cov, _ = ex.conditional_moments(model, tau, value, points)
            assert abs(rank[i] - ex.factor_psd(cov).shape[1]) <= 1
            assert np.allclose(c_mean, d_mean, rtol=0.0, atol=1e-12)
            assert np.max(np.abs(c_factor @ c_factor.T - cov)) <= 1e-12
            assert (mean[i, len(points):] == value).all()  # padding holds tau

    def test_pinned_points_reproduce_the_value(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(), std=1.5)
        tau, value, points = _inside_draws(1)[0]
        points = points.copy()
        points[[3, 100]] = tau
        block = _as_block([(tau, value, points)])
        mean, factor, rank, _, errors, _ = field._column_factor(model, *block)
        assert errors == {} and rank[0] == factor.shape[1] > 0
        assert mean[0, 3] == mean[0, 100] == value
        assert not factor[0][:, [3, 100]].any()
        values, draw_rank, errors = field._conditional_draw_inside(
            model, *block, np.random.default_rng(2))
        assert errors == {} and draw_rank[0] == rank[0]
        assert values[0, 3] == values[0, 100] == value

    def test_non_finite_kernel_column_drops_the_draw(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        tau, value, points = _inside_draws(1)[0]
        points = points.copy()
        points[5] = np.nan
        rng = np.random.default_rng(3)
        values, rank, errors = field._conditional_draw_inside(
            model, tau[None], np.array([value]), points[None],
            np.ones((1, points.shape[0]), dtype=bool), rng)
        assert list(errors) == [0] and isinstance(errors[0], ModelEvaluationError)
        assert str(errors[0]) == "correlation function returned a non-finite value"
        assert np.isnan(values).all() and rank.tolist() == [0]
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

    def test_low_residual_diagonal_raises_in_the_dense_words(self, monkeypatch):
        # a built-in kernel cannot fail the test; a negative tolerance makes it fire
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        tau, value, points = _inside_draws(1)[0]
        monkeypatch.setattr(field, "_INDEFINITE_TOL", -1.0)
        _, _, rank, live, errors, _ = field._column_factor(model, *_as_block([(tau, value,
                                                                                points)]))
        assert list(errors) == [0] and isinstance(errors[0], SingularModelError)
        assert rank.tolist() == [0] and not live.any()
        assert re.match(rf"^covariance of size n={points.shape[0]} is indefinite: "
                        r"residual diagonal .* after rank \d+ is below ", str(errors[0]))


class TestColumnBlock:
    # one block of the kernel-column route mixes every kind of row:
    #   0: the largest draw, 1: no inside point, 2: one inside point,
    #   3: two points bit-equal to tau, 4: a NaN point, 5: another draw
    model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential(), std=1.5)

    @staticmethod
    def _mixed():
        draws = sorted(_inside_draws(5), key=lambda draw: -len(draw[2]))
        full, pinned, bad, other = draws[0], draws[1], draws[2], draws[3]
        pinned_points, bad_points = pinned[2].copy(), bad[2].copy()
        pinned_points[[7, 40]] = pinned[0]
        bad_points[11] = np.nan
        rows = [full, (draws[4][0], draws[4][1], draws[4][2][:0]),
                (draws[4][0], draws[4][1], draws[4][2][:1]),
                (pinned[0], pinned[1], pinned_points), (bad[0], bad[1], bad_points), other]
        return rows, _as_block(rows, spread=np.random.default_rng(72))

    def test_rows_draw_as_the_block_without_the_dropped_row(self):
        rows, (taus, values_at_tau, points, inside) = self._mixed()
        assert [len(at) for _, _, at in rows][:3] == [max(len(at) for _, _, at in rows), 0, 1]
        assert len(rows[0][2]) >= 280
        mean, factor, rank, live, errors, dense = field._column_factor(
            self.model, taus, values_at_tau, points, inside)
        assert list(errors) == [4] and isinstance(errors[4], ModelEvaluationError)
        assert dense == [] and rank[1] == rank[4] == 0 and rank[2] == 1
        assert not live[[1, 4]].any()
        for i in (0, 2, 3, 5):
            tau, value, at = rows[i]
            d_mean, cov, _ = ex.conditional_moments(self.model, tau, value, at)
            row_factor = _row_factor(factor, rank, live, i)
            assert np.allclose(mean[i, :len(at)], d_mean, rtol=0.0, atol=1e-12)
            assert np.max(np.abs(row_factor @ row_factor.T - cov)) <= 1e-12
        assert mean[3, 7] == mean[3, 40] == values_at_tau[3]
        assert not factor[3][:, [7, 40]].any()

        rng = np.random.default_rng(73)
        values, draw_rank, draw_errors = field._conditional_draw_inside(
            self.model, taus, values_at_tau, points, inside, rng)
        assert list(draw_errors) == [4] and draw_rank.tolist() == rank.tolist()
        assert np.isnan(values[[1, 4]]).all() and np.isfinite(values[inside & live]).all()
        assert (values[3][inside[3]][[7, 40]] == values_at_tau[3]).all()
        # the other rows draw as if row 4 were not there, and take the same normals
        keep = np.arange(len(rows)) != 4
        expected_rng = np.random.default_rng(73)
        expected, expected_rank, expected_errors = field._conditional_draw_inside(
            self.model, taus[keep], values_at_tau[keep], points[keep], inside[keep],
            expected_rng)
        assert expected_errors == {} and expected_rank.tolist() == rank[keep].tolist()
        assert np.array_equal(values[keep], expected, equal_nan=True)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_a_row_past_the_cap_draws_dense_at_its_place_in_the_stream(self, monkeypatch):
        rows, (taus, values_at_tau, points, inside) = self._mixed()
        monkeypatch.setattr(field, "_COLUMN_CAP", 4)
        mean, factor, rank, live, errors, dense = field._column_factor(
            self.model, taus, values_at_tau, points, inside)
        assert dense == [0, 3, 5] and list(errors) == [4] and rank[2] == 1
        rng = np.random.default_rng(74)
        values, draw_rank, _ = field._conditional_draw_inside(
            self.model, taus, values_at_tau, points, inside, rng)
        # replay: the column rows take their normals in row order, and each
        # dense row draws as a block of one where it stands
        replay = np.random.default_rng(74)
        normals = np.zeros(factor.shape[:2])
        for i in range(len(rows)):
            if i in dense:
                row, at = slice(i, i + 1), inside[i]
                drawn, dense_rank, failed = field._conditional_draw_block(
                    self.model, taus[row], values_at_tau[row], points[row][:, at], replay)
                assert failed == {} and draw_rank[i] == dense_rank[0] > 4
                assert np.array_equal(values[i, at], drawn[0])
            else:
                normals[i, :rank[i]] = replay.standard_normal(rank[i])
        draws = mean + np.matmul(normals[:, None, :], factor)[:, 0]
        assert np.array_equal(values[2, inside[2]], draws[2, :1])
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_a_low_residual_drops_each_row_with_its_own_message(self, monkeypatch):
        rows, block = self._mixed()
        monkeypatch.setattr(field, "_INDEFINITE_TOL", -1.0)
        rng = np.random.default_rng(75)
        values, rank, errors = field._conditional_draw_inside(self.model, *block, rng)
        assert sorted(errors) == [0, 2, 3, 4, 5] and not rank.any() and np.isnan(values).all()
        assert isinstance(errors[4], ModelEvaluationError)
        for i in (0, 2, 3, 5):
            assert isinstance(errors[i], SingularModelError)
            assert str(errors[i]).startswith(f"covariance of size n={len(rows[i][2])} is "
                                             f"indefinite: residual diagonal ")
        assert rng.bit_generator.state == np.random.default_rng(75).bit_generator.state


class _Normals:
    """Stands in for a Generator: hands out the given normals in order and
    counts them."""

    def __init__(self, normals):
        self.normals = np.asarray(normals, dtype=float)
        self.taken = 0

    def standard_normal(self, size):
        out = self.normals[self.taken:self.taken + size]
        assert out.size == size
        self.taken += size
        return out


def _chain(model, tau, value, points, rng):
    """(values, rank) of the chain draw at all of ``points`` (n, 1): a block
    of one row."""
    values, rank, errors = field._markov_draw(model, tau[None], np.array([value]),
                                              points[None], np.ones((1, len(points)), bool), rng)
    assert errors == {}
    return values[0], int(rank[0])


def _markov_moments(model, tau, value, points):
    """(mean, F, rank) of the chain draw, F built column by column by feeding
    unit normals: the draw is mean + F z."""
    n = points.shape[0]
    mean, rank = _chain(model, tau, value, points, _Normals(np.zeros(n)))
    factor = np.empty((n, rank))
    for j in range(rank):
        values, _ = _chain(model, tau, value, points, _Normals(np.eye(rank)[j]))
        factor[:, j] = values - mean
    return mean, factor, rank


def _exponential_model(kernel=None, d=1, **kwargs):
    return ex.FieldModel(ex.BoxDomain(np.zeros(d), np.ones(d)),
                         ex.Exponential() if kernel is None else kernel,
                         regularity=ex.Exponential().regularity, **kwargs)


class TestMarkovDraw:
    # the 1-d exponential kernel is drawn as an AR(1) chain outward from tau

    @pytest.mark.parametrize("kernel, d, markov", [
        pytest.param(ex.Exponential(), 1, True, id="exponential"),
        pytest.param(ex.PowerExponential(1.0, 0.4), 1, True, id="powerexp1"),
        pytest.param(ex.PowerExponential(1.5), 1, False, id="powerexp1.5"),
        pytest.param(type("Subclass", (ex.Exponential,), {})(), 1, False, id="subclass"),
        pytest.param(lambda a, b, out=None: ex.Exponential()(a, b, out=out), 1, False,
                     id="user"),
        pytest.param(ex.Exponential(), 2, False, id="2d")])
    def test_route_is_set_by_the_model(self, kernel, d, markov):
        model = _exponential_model(kernel, d)
        assert field._is_markov(model) == markov
        rng = np.random.default_rng(5)
        points = rng.random((1, 300, d))
        tau, value = np.full((1, d), 0.4), np.array([3.5])
        block, chain, dense = (np.random.default_rng(8) for _ in range(3))
        inside = np.ones((1, 300), bool)
        values, rank, errors = field._conditional_draw_inside(model, tau, value, points,
                                                              inside, block)
        assert errors == {}
        if markov:
            expected, expected_rank, _ = field._markov_draw(model, tau, value, points, inside,
                                                            chain)
            replay = chain
        else:
            expected, expected_rank, _ = field._conditional_draw_block(model, tau, value,
                                                                       points, dense)
            replay = dense
        assert np.array_equal(values.ravel(), np.ravel(expected))
        assert rank.tolist() == np.ravel(expected_rank).tolist()
        assert block.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("side", ["both", "right", "left", "duplicates"])
    @pytest.mark.parametrize("ell, mean, std", [
        pytest.param(1.0, 0.0, 1.0, id="unit"),
        pytest.param(0.3, ex.LinearMean([0.7], 0.2), 1.0, id="ell0.3-trend"),
        pytest.param(0.3, ex.LinearMean([0.7]), lambda p: 1.0 + 0.5 * p[:, 0], id="std"),
        pytest.param(2.0, 0.0, 2.5, id="ell2-std2.5")])
    def test_chain_reproduces_the_conditional_moments(self, side, ell, mean, std):
        model = _exponential_model(ex.Exponential(ell), mean=mean, std=std)
        tau, value = np.array([0.4]), 3.7
        points = np.random.default_rng(11).random((203, 1))
        if side == "right":
            points = 0.4 + 0.6 * points
        elif side == "left":
            points = 0.4 * points
        elif side == "duplicates":
            points[[5, 60]] = points[[7, 61]]
            points[9] = tau
        c_mean, factor, rank = _markov_moments(model, tau, value, points)
        d_mean, cov, _ = ex.conditional_moments(model, tau, value, points)
        assert rank == (200 if side == "duplicates" else 203) == np.linalg.matrix_rank(cov)
        assert np.max(np.abs(c_mean - d_mean)) <= 1e-12
        assert np.max(np.abs(factor @ factor.T - cov)) <= 1e-12

    def test_rank_normals_are_drawn_and_pinned_points_keep_the_value(self):
        model = _exponential_model(ex.PowerExponential(1.0, 0.5), mean=ex.LinearMean([1.3]),
                                   std=lambda p: 2.0 - p[:, 0])
        points = np.random.default_rng(12).random((320, 1))
        tau, value = points[17].copy(), 4.25
        points[[40, 250]] = tau
        points[100] = points[101]
        rng = np.random.default_rng(13)
        values, rank = _chain(model, tau, value, points, rng)
        assert rank == 320 - 4  # tau three times, one duplicate
        assert values[17] == values[40] == values[250] == value
        assert values[100] == values[101]
        replay = np.random.default_rng(13)
        replay.standard_normal(rank)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_non_finite_point_drops_the_draw(self):
        model = _exponential_model()
        points = np.random.default_rng(14).random((1, 50, 1))
        points[0, 5] = np.nan
        rng = np.random.default_rng(3)
        values, rank, errors = field._conditional_draw_inside(
            model, np.array([[0.5]]), np.array([3.0]), points, np.ones((1, 50), bool), rng)
        assert list(errors) == [0] and isinstance(errors[0], ModelEvaluationError)
        assert str(errors[0]) == "correlation function returned a non-finite value"
        assert np.isnan(values).all() and rank.tolist() == [0]
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

    @staticmethod
    def _block(seed):
        """Block inputs with the cases a row can hold: row 3 has no inside
        point, row 5 pins two points to tau and row 6 holds exact duplicates
        on each side of tau; most of each row's points lie in T."""
        rng = np.random.default_rng(seed)
        points = rng.normal(0.5, 0.4, (16, 320, 1))
        taus = rng.random((16, 1))
        inside = (points[..., 0] >= 0.0) & (points[..., 0] <= 1.0)
        inside[3] = False
        points[5, [10, 11]] = taus[5]
        points[6, [20, 30]] = points[6, [21, 31]] = taus[6] + np.array([[-0.1], [0.1]])
        inside[5:7, [10, 11, 20, 21, 30, 31]] = True
        return taus, 6.0 + rng.random(16), points, inside

    @pytest.mark.parametrize("mean, std", [
        pytest.param(0.0, 1.0, id="unit"),
        pytest.param(ex.LinearMean([0.7], 0.2), lambda p: 1.0 + 0.5 * p[:, 0], id="trend-std")])
    def test_block_is_the_row_by_row_chain(self, mean, std):
        # one solve for the block gives the bits, ranks and stream of one
        # chain per row; a row with a NaN point drops alone and takes no normal
        model = _exponential_model(ex.Exponential(0.3), mean=mean, std=std)
        taus, values_at_tau, points, inside = self._block(15)
        points[9, np.flatnonzero(inside[9])[0]] = np.nan
        block_rng, row_rng = np.random.default_rng(16), np.random.default_rng(16)
        values, rank, errors = field._markov_draw(model, taus, values_at_tau, points, inside,
                                                  block_rng)
        assert list(errors) == [9] and isinstance(errors[9], ModelEvaluationError)
        for i in range(16):
            if i == 9:
                assert np.isnan(values[9]).all() and rank[9] == 0
                continue
            row = slice(i, i + 1)
            expected, expected_rank, row_errors = field._markov_draw(
                model, taus[row], values_at_tau[row], points[row], inside[row], row_rng)
            assert row_errors == {} and rank[i] == expected_rank[0]
            assert np.array_equal(values[row], expected, equal_nan=True)
        assert rank[3] == 0 and np.isnan(values[3]).all()
        assert values[5, 10] == values[5, 11] == values_at_tau[5]
        assert values[6, 20] == values[6, 21] and values[6, 30] == values[6, 31]
        assert block_rng.bit_generator.state == row_rng.bit_generator.state


class TestInsideDraws:
    # at m >= 256 a block draws each row at its inside points alone: the
    # chain and the kernel columns take the whole block, the dense route
    # goes row by row

    @pytest.mark.parametrize("kernel", [
        pytest.param(ex.Exponential(0.3), id="chain"),
        pytest.param(ex.SquaredExponential(), id="columns"),
        pytest.param(ex.PowerExponential(1.5), id="dense")])
    @pytest.mark.parametrize("which", ["mean", "std"])
    def test_non_finite_mean_or_std_drops_only_its_row(self, kernel, which):
        taus, values_at_tau, points, inside = TestMarkovDraw._block(17)
        bad = points[9, np.flatnonzero(inside[9])[0], 0]
        model = _exponential_model(kernel, **{which: lambda p: np.where(
            p[:, 0] == bad, np.nan, 1.0 + 0.1 * p[:, 0])})
        values, rank, errors = field._conditional_draw_inside(
            model, taus, values_at_tau, points, inside, np.random.default_rng(18))
        assert list(errors) == [9] and isinstance(errors[9], ModelEvaluationError)
        assert str(errors[9]) == f"{which} function returned a non-finite value"
        assert np.isnan(values[9]).all() and rank[9] == 0
        keep = np.arange(16) != 9  # the other rows draw as if row 9 were not there
        expected, expected_rank, _ = field._conditional_draw_inside(
            model, taus[keep], values_at_tau[keep], points[keep], inside[keep],
            np.random.default_rng(18))
        assert np.array_equal(values[keep], expected, equal_nan=True)
        assert rank[keep].tolist() == expected_rank.tolist()


# ---------------------------------------------------------------------------
# Gaussian tails
# ---------------------------------------------------------------------------

def _tail_oracle_log(x: float) -> float:
    """Independent high-precision oracle for log P(Z > x)."""
    if x < 0.0:
        return math.log1p(-math.exp(_tail_oracle_log(-x)))
    if x > 30.0:
        # Mills-ratio asymptotic series, error ~1e-12 relative beyond x=30
        inv2 = 1.0 / (x * x)
        series = 1.0 - inv2 + 3.0 * inv2 ** 2 - 15.0 * inv2 ** 3 + 105.0 * inv2 ** 4
        return -0.5 * x * x - math.log(x) - 0.5 * math.log(2 * math.pi) + math.log(series)
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                  x, x + 40.0, epsabs=0.0, epsrel=1e-13, limit=300)
    return math.log(val)


class TestGaussianTail:
    def test_zero_is_half(self):
        assert float(ex.gaussian_tail(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_three(self):
        assert float(ex.gaussian_tail(3.0)) == pytest.approx(1.3498980316301e-3, rel=1e-7)

    def test_value_at_eight(self):
        # high-precision value 6.221e-16; a published table's 6.7E-16 is off
        assert float(ex.gaussian_tail(8.0)) == pytest.approx(6.2209605742e-16, rel=1e-6)

    @pytest.mark.parametrize("x", [-40.0, -8.0, -1.0, 0.5, 3.0, 8.0, 20.0, 30.0, 40.0])
    def test_log_tail_high_precision(self, x):
        got = float(ex.log_gaussian_tail(x))
        assert got == pytest.approx(_tail_oracle_log(x), abs=1e-10)

    def test_symmetry_identity(self):
        for x in np.linspace(-8.0, 8.0, 33):
            total = float(ex.gaussian_tail(x)) + float(ex.gaussian_tail(-x))
            assert abs(total - 1.0) <= 1e-12


class TestMarginalTail:
    def test_centered_unit_at_mean(self, smooth_model):
        assert ex.marginal_tail(smooth_model, [0.5, 0.5], 0.0) == pytest.approx(0.5)

    def test_linear_trend_example(self, trend_model):
        got = ex.marginal_tail(trend_model, [1.0, 1.0], 3.0)
        assert got == pytest.approx(float(ex.gaussian_tail(2.8)), rel=1e-12)
        assert got == pytest.approx(2.5551303304e-3, rel=1e-7)

    def test_monotone_decreasing_and_vanishing(self, trend_model):
        levels = [1.0, 2.0, 4.0, 8.0, 40.0]
        tails = [ex.marginal_tail(trend_model, [0.5, 0.5], lv) for lv in levels]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert ex.marginal_tail(trend_model, [0.5, 0.5], 400.0) == 0.0
