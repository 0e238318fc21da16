import collections
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import excursim as ex
import excursim.engine as engine
import excursim.field as field
from excursim.engine import _Block, _draw_block, _run_blocks, block_size
from excursim.errors import (
    ConfigurationError,
    ExcursimError,
    InsufficientReplicatesError,
    IntegrandBoundsError,
    ModelEvaluationError,
    NoHitError,
    ReplicateFailureError,
    SingularModelError,
)
from excursim.measure import _grid_sampler_tables


@pytest.fixture(scope="module")
def cosine_setup(cosine_model):
    b = 4.0
    return {
        "model": cosine_model,
        "b": b,
        "ctx": ex.measure_context(cosine_model, b),
        "zeta": ex.cluster_scale(cosine_model, b),
        "density": ex.DesignDensity(1, 3, 1.0),
    }


def _block_rows(s, m, integrand, size, seed):
    """A block drawn on stream ``seed``, the values f(tau) it drew (replayed
    from the same stream) and its hit indicators."""
    model, ctx = s["model"], s["ctx"]
    block = _draw_block(model, ctx, s["zeta"], s["density"], m, integrand, size,
                        np.random.default_rng(seed))
    replay = np.random.default_rng(seed)
    taus = ex.sample_tau(model, ctx, replay, size=size)
    values_at_tau = ex.sample_truncated_tail(model.mean_at(taus), model.std_at(taus),
                                             ctx.gamma, replay, size=size)
    assert np.array_equal(taus, block.draws.tau)
    assert block.errors == {}
    hits = np.any((block.field_values > ctx.b) & block.draws.inside, axis=1)
    return block, values_at_tau, hits


class TestReplicates:
    # every check runs on blocks of one and on blocks of block_size(m)

    def test_tail_replicate_invariants(self, cosine_setup, smooth_model):
        # constant marginals: the proposal is the tau density, so z = I_gamma / mes
        b = 4.0
        setups = [(cosine_setup, 20), ({
            "model": smooth_model, "ctx": ex.measure_context(smooth_model, b),
            "zeta": ex.cluster_scale(smooth_model, b),
            "density": ex.DesignDensity(2, 4, 0.625)}, 40)]
        for s, m in setups:
            for size in (1, block_size(m)):
                for i in range(-(-800 // size)):
                    block, values_at_tau, hits = _block_rows(s, m, None, size, (101, size, i))
                    assert (values_at_tau > s["ctx"].gamma).all()
                    assert (block.mes >= 0.0).all()
                    assert (block.mes[hits] > 0.0).all()
                    expected = math.exp(s["ctx"].log_norm_integral) / block.mes[hits]
                    assert np.allclose(np.exp(block.log_z[hits]), expected, rtol=1e-12, atol=0.0)
                    assert (block.log_z[~hits] == -np.inf).all()

    def test_integral_replicate_pairing(self, cosine_setup):
        s = cosine_setup
        integrand = ex.IntegrandSpec.constant(1.0, s["model"])
        for size in (1, block_size(20)):
            seen_positive = False
            for i in range(-(-400 // size)):
                block, _, hits = _block_rows(s, 20, integrand, size, (202, size, i))
                positive = block.log_y > -np.inf
                assert (np.exp(block.log_y) >= 0.0).all()
                assert (hits[positive] & (block.mes[positive] > 0.0)).all()
                seen_positive = seen_positive or positive.any()
            assert seen_positive

    def test_constant_integrand_scales_y_linearly(self, cosine_setup):
        s = cosine_setup
        one = ex.IntegrandSpec.constant(1.0, s["model"])
        three = ex.IntegrandSpec.constant(3.0, s["model"])
        for size in (1, block_size(20)):
            a, _, _ = _block_rows(s, 20, one, size, (7, 0))
            b, _, _ = _block_rows(s, 20, three, size, (7, 0))
            assert np.array_equal(b.log_z, a.log_z)
            assert np.allclose(np.exp(b.log_y), 3.0 * np.exp(a.log_y), rtol=1e-12, atol=0.0)

    def test_rank_recorded(self, cosine_setup):
        # the cosine kernel is rank two, so conditional covariances of 20
        # points are rank one
        for size in (1, block_size(20)):
            block, _, _ = _block_rows(cosine_setup, 20, None, size, (9, 0))
            assert (block.rank == 1).all()


class TestIntegrandSpec:
    def test_requires_positive_lower_bound(self, cosine_model):
        with pytest.raises(ConfigurationError):
            ex.IntegrandSpec.from_function(lambda p: np.ones(p.shape[0]), 0.0, 1.0,
                                           cosine_model)

    def test_spot_check_catches_violations(self, smooth_model):
        with pytest.raises(IntegrandBoundsError):
            ex.IntegrandSpec.from_function(lambda p: 1.0 + p[:, 0], 1.0, 1.5,
                                           smooth_model)

    def test_valid_function_integrand(self, smooth_model):
        spec = ex.IntegrandSpec.from_function(lambda p: 1.0 + 0.25 * p[:, 0],
                                              1.0, 1.25, smooth_model)
        assert spec.bounds == (1.0, 1.25)


def _unit_sqexp():
    return ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())


class TestIntegrandBoundsInsideT:
    def test_integrand_undefined_outside_t_matches_the_constant(self):
        # valid on T and NaN off it: no replicate is dropped, and the run is
        # bit-equal to the constant integrand, whose values off T are never read
        model = _unit_sqexp()
        nan_off_t = ex.IntegrandSpec.from_function(
            lambda p: np.where((p[:, 0] >= 0.0) & (p[:, 0] <= 1.0), 1.0, np.nan),
            1.0, 1.0, model)
        one = ex.IntegrandSpec.constant(1.0, model)
        runs = [ex.estimate_tail_and_excursion(model, 4.0, 200, 20, integrand=spec,
                                               seed=4200, workers=1)
                for spec in (nan_off_t, one)]
        for a, c in zip(*runs):
            assert a.errored == 0 and c.errored == 0
            assert (a.estimate, a.std_err) == (c.estimate, c.std_err)

    @pytest.mark.parametrize("m", [20, 320])
    def test_violation_inside_t_drops_its_replicate(self, m):
        # a stacked block at m = 20, a block of one at m = 320
        model, b = _unit_sqexp(), 4.0
        ctx, zeta, density = (ex.measure_context(model, b), ex.cluster_scale(model, b),
                                ex.DesignDensity(1))
        size = block_size(m)
        inside_t = model.domain.contains
        # the plain constructor skips the spot check, which breaks_inside fails
        breaks_inside = ex.IntegrandSpec(lambda p: np.where(inside_t(p), 2.0, 1.0), 1.0, 1.0)
        breaks_outside = ex.IntegrandSpec(lambda p: np.where(inside_t(p), 1.0, 2.0), 1.0, 1.0)
        for seed in range(4):
            dropped, kept = (_draw_block(model, ctx, zeta, density, m, spec, size,
                                         np.random.default_rng((m, seed)))
                             for spec in (breaks_inside, breaks_outside))
            inside = dropped.draws.inside
            assert (~inside).any()  # some design points fall outside T
            assert set(dropped.errors) == set(np.flatnonzero(inside.any(axis=1)))
            assert all(isinstance(e, IntegrandBoundsError) for e in dropped.errors.values())
            assert kept.errors == {}


class TestAggregate:
    def test_constant_values(self):
        report = ex.aggregate(log_values=np.log([2.5, 2.5, 2.5]))
        assert report.estimate == pytest.approx(2.5, rel=1e-15) and report.std_err == 0.0

    def test_hand_arithmetic(self):
        report = ex.aggregate(log_values=[-np.inf, math.log(2.0)])
        assert report.estimate == pytest.approx(1.0)
        assert report.std_err == pytest.approx(1.0)

    def test_too_few_values(self):
        with pytest.raises(InsufficientReplicatesError):
            ex.aggregate(log_values=[0.0])

    def test_linear_values_are_rejected(self):
        with pytest.raises(TypeError):
            ex.aggregate([0.5, 1.5])

    def test_chebyshev_replicate_count(self):
        values = [0.5, 1.5, 0.5, 1.5]
        report = ex.aggregate(log_values=np.log(values), epsilon=0.1, delta=0.05)
        var = np.var(values, ddof=1)
        assert report.n_required == pytest.approx(var / (0.05 * 0.1 ** 2 * 1.0 ** 2))

    def test_log_estimate(self):
        report = ex.aggregate(log_values=np.log([1e-10, 3e-10]))
        assert report.log_estimate == pytest.approx(math.log(2e-10))

    def test_heavy_tailed_logs_match_the_linear_mean(self):
        # the linear figures equal a compensated mean and standard error of
        # the exponentiated values, over logs spanning about 20 e-folds
        logs = np.random.default_rng(2718).normal(0.0, 3.0, 1000)
        report = ex.aggregate(log_values=logs)
        values = np.exp(logs)
        mean = math.fsum(values) / values.size
        std_err = math.sqrt(math.fsum((values - mean) ** 2) / (values.size - 1) / values.size)
        assert report.estimate == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert report.std_err == pytest.approx(std_err, rel=1e-14, abs=0.0)
        assert report.log_estimate == pytest.approx(math.log(mean), rel=1e-14)
        assert report.log_std_err == pytest.approx(math.log(std_err), rel=1e-14)

    def test_shifted_logs_shift_the_log_figures_exactly(self):
        # eighths and a largest log of 0 keep every subtraction exact; at -800
        # the linear figures underflow to zero and the log figures do not
        logs = -np.random.default_rng(1618).integers(0, 64, 500) / 8.0
        logs[0] = 0.0
        base = ex.aggregate(log_values=logs, epsilon=0.1, delta=0.05)
        shifted = ex.aggregate(log_values=logs - 800.0, epsilon=0.1, delta=0.05)
        assert shifted.log_estimate == base.log_estimate - 800.0
        assert shifted.log_std_err == base.log_std_err - 800.0
        assert shifted.estimate == 0.0 and shifted.std_err == 0.0
        assert shifted.n_required == base.n_required

    def test_all_misses(self):
        report = ex.aggregate(log_values=np.full(4, -np.inf), epsilon=0.1, delta=0.05)
        assert (report.estimate, report.std_err) == (0.0, 0.0)
        assert report.log_estimate == -np.inf and report.log_std_err == -np.inf
        assert report.n_required == math.inf


class TestEstimateTail:
    def test_cosine_level_three_replicate_mean_unbiased(self, cosine_model):
        # 4-sigma window scales with n; 3e4 replicates keep the suite bounded
        n = 30000
        report = ex.estimate_tail(cosine_model, 3.0, n, 20,
                                  density=ex.DesignDensity(1, 3, 1.0), seed=303)
        truth = ex.cosine_truth(3.0)
        assert abs(report.estimate - truth) < 4.0 * report.std_err
        assert truth == pytest.approx(2.7e-3, rel=0.05)

    def test_cosine_level_five_matches_published_order(self, cosine_model):
        report = ex.estimate_tail(cosine_model, 5.0, 1000, 20,
                                  density=ex.DesignDensity(1, 3, 1.0), seed=404)
        truth = ex.cosine_truth(5.0)
        assert abs(report.estimate - truth) < 4.0 * report.std_err
        assert 3.4e-8 / 2.5 < report.std_err < 3.4e-8 * 2.5

    def test_m_from_eps_when_not_given(self, cosine_model):
        report = ex.estimate_tail(cosine_model, 3.0, 50, eps=0.5, seed=1)
        assert report.m == ex.choose_m(0.5, cosine_model)

    def test_missing_m_and_eps_rejected(self, cosine_model):
        with pytest.raises(ConfigurationError):
            ex.estimate_tail(cosine_model, 3.0, 50)

    def test_both_m_and_eps_rejected(self, cosine_model):
        with pytest.raises(ConfigurationError, match="exactly one of m and eps"):
            ex.estimate_tail(cosine_model, 3.0, 50, m=40, eps=0.5)

    def test_deterministic_in_seed_and_workers(self, cosine_model):
        # m = 64 gives blocks of 31, so n = 300 spans ten blocks and the
        # four-worker run really goes through the thread pool
        assert block_size(64) < 300 // 2
        kwargs = dict(m=64, density=ex.DesignDensity(1, 3, 1.0), seed=777)
        a = ex.estimate_tail(cosine_model, 4.0, 300, workers=1, **kwargs)
        b = ex.estimate_tail(cosine_model, 4.0, 300, workers=1, **kwargs)
        c = ex.estimate_tail(cosine_model, 4.0, 300, workers=4, **kwargs)
        assert (a.estimate, a.std_err) == (b.estimate, b.std_err)
        assert (a.estimate, a.std_err) == (c.estimate, c.std_err)

    def test_level_forty_keeps_a_finite_log_estimate(self):
        # w(40) ~ 1e-348 underflows to zero; log_estimate is aggregated from
        # per-replicate log weights and must track the Rice tail of exp(-t^2)
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        b = 40.0
        report = ex.estimate_tail(model, b, 2000, 40, seed=4040, workers=1)
        assert report.errored == 0
        log_rice = ex.log_rice_tail(b, 1.0, 2.0)
        assert math.isfinite(report.log_estimate)
        assert abs(report.log_estimate - log_rice) <= 0.1
        assert report.log_std_err < report.log_estimate


class TestEstimateConditional:
    def test_smooth_model_conditional_volume(self, smooth_model):
        report = ex.estimate_conditional(smooth_model, 4.0, 800, 40,
                                         density=ex.DesignDensity(2, 4, 0.625),
                                         seed=11)
        # published-run ratio 3.2e-5 / 3.4e-4 ~ 0.094 with ~5% noise on the
        # denominator; combine both uncertainties
        target = 3.2e-5 / 3.4e-4
        tol = 4.0 * math.hypot(report.std_err, 0.05 * target)
        assert abs(report.estimate - target) < tol
        assert 0.0 < report.estimate <= smooth_model.domain.measure

    def test_integrand_scaling_with_matched_seeds(self, cosine_model):
        kwargs = dict(m=20, density=ex.DesignDensity(1, 3, 1.0), seed=5)
        one = ex.estimate_conditional(cosine_model, 3.0, 200,
                                      integrand=ex.IntegrandSpec.constant(1.0, cosine_model),
                                      **kwargs)
        five = ex.estimate_conditional(cosine_model, 3.0, 200,
                                       integrand=ex.IntegrandSpec.constant(5.0, cosine_model),
                                       **kwargs)
        assert five.estimate == pytest.approx(5.0 * one.estimate, rel=1e-12)

    def test_no_hits_raises(self, cosine_model):
        # one design point per replicate at b = 40: both replicates miss
        # (log z = -inf for each), so there is no ratio to form
        with pytest.raises(NoHitError):
            ex.estimate_conditional(cosine_model, 40.0, 2, 1,
                                    density=ex.DesignDensity(1, 3, 1.0), seed=2)


class TestConditionalAtHighLevels:
    # v(b) = E mes({f > b}) / P(sup f > b) with xi = 1: quadrature over the
    # Rice tail of the unit-interval exp(-t^2) process (lambda2 = 2)

    @pytest.fixture(scope="class")
    def reports(self):
        model = _unit_sqexp()
        return {b: ex.estimate_conditional(model, b, 2000, 40, seed=seed, workers=1)
                for b, seed in ((6.0, 6006), (40.0, 4004))}

    def test_level_forty_matches_its_oracle(self, reports):
        # every weight underflows at b = 40; the common scaling keeps v(b) finite
        b = 40.0
        report = reports[b]
        truth = math.exp(ex.log_normalizing_integral(_unit_sqexp(), b)[0]
                         - ex.log_rice_tail(b, 1.0, 2.0))
        assert report.errored == 0
        assert math.isfinite(report.estimate) and math.isfinite(report.std_err)
        assert abs(report.estimate - truth) <= (4.0 * report.std_err
                                                + _M40_BIAS_ALLOWANCE * truth)

    def test_relative_error_does_not_grow_with_the_level(self, reports):
        # the paper's constant cost for v(b): same n and m, no worse CV at b = 40
        assert reports[40.0].rel_std_err <= 1.5 * reports[6.0].rel_std_err


def _fake_block(rng, lo, hi, failing=()):
    """A block whose replicate values are uniforms; replicates in ``failing`` error."""
    size = hi - lo
    errors = {i - lo: ExcursimError("boom") for i in range(lo, hi) if i in failing}
    return _Block(log_z=np.log(rng.random(size)), log_y=np.full(size, -np.inf),
                  mes=np.ones(size), rank=np.ones(size, dtype=np.int32), errors=errors)


class TestRunReplicates:
    def test_isolated_failures_are_excluded_and_counted(self):
        kept, errored = _run_blocks(
            lambda rng, lo, hi: _fake_block(rng, lo, hi, failing={3}), 5000, 64, 0, workers=1)
        assert errored == 1
        assert kept.ok.size == 4999 and kept.ok.all()

    def test_failure_threshold_aborts_run(self):
        with pytest.raises(ReplicateFailureError):
            _run_blocks(lambda rng, lo, hi: _fake_block(rng, lo, hi, failing=range(0, 1000, 10)),
                        1000, 64, 0, workers=1)

    def test_worker_partition_invariance(self):
        reference, _ = _run_blocks(_fake_block, 2000, 64, 42, workers=1)
        for workers in (1, 2, 3, 8):
            kept, _ = _run_blocks(_fake_block, 2000, 64, 42, workers=workers)
            assert np.array_equal(kept.log_z, reference.log_z)

    def test_a_raising_block_drops_all_its_replicates(self):
        def block(rng, lo, hi):
            if lo <= 3 < hi:
                raise ExcursimError("tau sampler failed")
            return _fake_block(rng, lo, hi)

        kept, errored = _run_blocks(block, 5000, 4, 0, workers=1)
        assert errored == 4 and kept.ok.size == 4996


def _faulty_kernel(target, fault):
    """Squared-exponential kernel that misbehaves on the design containing ``target``."""
    base = ex.SquaredExponential()

    def kernel(a, b, out=None):
        if not np.any(np.all(a == target, axis=1)):
            return base(a, b, out=out)
        if fault == "nan":
            return np.full((a.shape[0], b.shape[0]), np.nan)
        # unit diagonal, -0.5 elsewhere, uncorrelated with tau: indefinite for m > 3
        return np.where(np.arange(a.shape[0])[:, None] == np.arange(b.shape[0]), 1.0, -0.5)

    return kernel


class TestBlocks:
    def test_block_sizes(self):
        assert block_size(20) == 312
        assert block_size(40) == 79
        assert block_size(255) == 2
        assert block_size(256) == block_size(320) == 16

    @pytest.mark.parametrize("fault, error", [("nan", ModelEvaluationError),
                                              ("indefinite", SingularModelError)])
    def test_user_kernel_failure_drops_only_its_replicate(self, fault, error):
        domain = ex.BoxDomain([0.0], [1.0])
        clean = ex.FieldModel(domain, ex.SquaredExponential())
        b, m, n, seed = 4.0, 10, 2000, 12
        ctx, zeta = ex.measure_context(clean, b), ex.cluster_scale(clean, b)
        density = ex.DesignDensity(1, 3, 1.0)

        def first_block(model):
            # the draws of block 0 of a run with this seed
            return _draw_block(model, ctx, zeta, density, m, None, block_size(m),
                               np.random.default_rng((seed, 0)))

        reference = first_block(clean)
        target = reference.draws.points[17, 0]
        model = ex.FieldModel(domain, _faulty_kernel(target, fault),
                              regularity=clean.regularity)
        faulty = first_block(model)
        assert list(faulty.errors) == [17]
        assert isinstance(faulty.errors[17], error)
        assert np.isnan(faulty.field_values[17]).all()
        # replicates before it consume the same normals as without the fault
        assert np.allclose(faulty.field_values[:17], reference.field_values[:17],
                           rtol=0.0, atol=1e-12)

        report = ex.estimate_tail(model, b, n, m, density=density, seed=seed)
        assert report.errored == 1 and report.n == n - 1

    @pytest.mark.parametrize("kernel, m, expected, route", [
        pytest.param(ex.SquaredExponential(), 256, 1, "columns", id="256-5"),
        pytest.param(ex.Exponential(), 256, 1, "chain", id="exponential-256-5"),
        pytest.param(ex.PowerExponential(1.5), 256, 5, "dense", id="powerexp1.5-256-5"),
        pytest.param(ex.SquaredExponential(), 40, 5, "dense", id="40-0")])
    def test_only_blocks_of_one_call_the_single_draw_routines(self, monkeypatch, kernel, m,
                                                              expected, route):
        # every block takes the block routines: the five single-draw names
        # see no call.  The n = 5 replicates are one block.  At m >= 256 the
        # kernel-column factor (1-d shape-2 kernels) and the chain (1-d
        # exponential) are entered once for the whole block, and any other
        # model takes one LAPACK factorization of each replicate's assembled
        # covariance.  At m = 40 the block factors each of its five
        # assembled covariances
        single = [(engine, name) for name in ("sample_design_points", "mes_hat", "alpha_hat")]
        single += [(field, name) for name in ("conditional_moments", "factor_psd")]
        routes = {"dense": (field, "_lapack_factor"), "columns": (field, "_column_factor"),
                  "chain": (field, "_markov_draw")}
        calls = collections.Counter()
        for module, name in single + list(routes.values()):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), kernel)
        ex.estimate_tail_and_excursion(model, 4.0, 5, m, density=ex.DesignDensity(1, 3, 1.0),
                                       seed=1, workers=1)
        assert block_size(m) == (16 if m >= 256 else 79)
        assert calls == collections.Counter({routes[route][1]: expected})

    def test_threads_keep_their_own_block_buffers(self, smooth_model):
        # six blocks of 79 on four threads, switching as often as possible
        kwargs = dict(m=40, density=ex.DesignDensity(2, 4, 0.625), seed=21)
        serial = ex.estimate_tail_and_excursion(smooth_model, 4.0, 474, workers=1, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = ex.estimate_tail_and_excursion(smooth_model, 4.0, 474, workers=4,
                                                      **kwargs)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert (a.estimate, a.std_err, a.errored) == (b.estimate, b.std_err, b.errored)

    def test_memory_is_bounded_in_n(self, smooth_model):
        def peak_bytes(model, b, m, density, n):
            tracemalloc.start()
            try:
                ex.estimate_tail_and_excursion(model, b, n, m, density=density, seed=5,
                                               workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spec = ex.PRESETS["table2"]  # blocks of 79 at m = 40
        table2 = (smooth_model, 4.0, spec["m"], ex.DesignDensity(2, spec["dof"], spec["scale"]))
        peak_bytes(*table2, 200)  # allocates this thread's block buffers
        small, large = peak_bytes(*table2, 2_000), peak_bytes(*table2, 20_000)
        assert large <= 1.5 * small, (small, large)
        # the 1-d exponential chain in blocks of 16 at m = 320: its block
        # temporaries are small, so the kept per-replicate scalars (29 bytes
        # in ReplicateArrays, then the kept copy) show; a field row kept per
        # replicate would add m * 8 = 2560 bytes
        rough = (ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.Exponential()), 6.0, 320,
                 ex.DesignDensity(1))
        small, large = peak_bytes(*rough, 2_000), peak_bytes(*rough, 20_000)
        assert large - small <= 64 * 18_000, (small, large)


class TestInsideOnlyDraws:
    # at m >= 256 blocks draw the field at the design points inside T only;
    # these tests replay a block of one

    @pytest.fixture(scope="class")
    def large_m(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.SquaredExponential())
        b, m = 6.0, 320
        return {"model": model, "b": b, "m": m, "ctx": ex.measure_context(model, b),
                "zeta": ex.cluster_scale(model, b), "density": ex.DesignDensity(1)}

    def _replay_design(self, s, seed):
        """The stream of ``seed`` replayed up to the design draw of a block of one."""
        model, ctx = s["model"], s["ctx"]
        rng = np.random.default_rng(seed)
        taus = ex.sample_tau(model, ctx, rng, size=1)
        values_at_tau = ex.sample_truncated_tail(model.mean_at(taus), model.std_at(taus),
                                                 ctx.gamma, rng, size=1)
        draw = ex.sample_design_points(taus[0], s["zeta"], s["m"], s["density"],
                                       model.domain, rng)
        return rng, taus[0], float(values_at_tau[0]), draw

    def test_outside_values_are_nan_and_only_inside_normals_are_drawn(self, large_m):
        s = large_m
        for i in range(5):
            seed = (61, i)
            block_rng = np.random.default_rng(seed)
            block = _draw_block(s["model"], s["ctx"], s["zeta"], s["density"], s["m"],
                                None, 1, block_rng)
            rng, tau, value, draw = self._replay_design(s, seed)
            inside = draw.inside
            assert np.array_equal(block.draws.inside[0], inside)
            assert 0 < np.count_nonzero(inside) < s["m"]
            assert np.isnan(block.field_values[0, ~inside]).all()
            assert np.isfinite(block.field_values[0, inside]).all()
            # the draw comes from the kernel-column factor of the inside points
            mean, factor, rank, live, errors, dense = field._column_factor(
                s["model"], tau[None], np.array([value]), draw.points[None], inside[None])
            assert errors == {} and dense == [] and np.array_equal(live[0], inside)
            assert block.rank[0] == rank[0] == factor.shape[1] < np.count_nonzero(inside)
            normals = rng.standard_normal(rank[0])
            expected = mean + np.matmul(normals[None, None, :], factor)[:, 0]
            assert np.array_equal(block.field_values[0, inside], expected[0])
            assert rng.bit_generator.state == block_rng.bit_generator.state
            # whose law is the conditional law of the inside points alone
            dense_mean, cov, _ = ex.conditional_moments(s["model"], tau, value,
                                                        draw.points[inside])
            factor = factor[0].T
            assert np.allclose(mean[0], dense_mean, rtol=0.0, atol=1e-12)
            assert np.allclose(factor @ factor.T, cov, rtol=0.0, atol=1e-12)

    def test_exponential_draws_the_chain_of_the_inside_points(self):
        model = ex.FieldModel(ex.BoxDomain([0.0], [1.0]), ex.Exponential(0.5))
        b, m = 6.0, 320
        s = {"model": model, "m": m, "ctx": ex.measure_context(model, b),
             "zeta": ex.cluster_scale(model, b), "density": ex.DesignDensity(1)}
        for i in range(3):
            seed = (68, i)
            block_rng = np.random.default_rng(seed)
            block = _draw_block(model, s["ctx"], s["zeta"], s["density"], m, None, 1, block_rng)
            rng, tau, value, draw = self._replay_design(s, seed)
            inside = draw.inside
            assert np.isnan(block.field_values[0, ~inside]).all()
            values, rank, errors = field._markov_draw(model, tau[None], np.array([value]),
                                                      draw.points[None], inside[None], rng)
            assert block.errors == errors == {} and block.rank.tolist() == rank.tolist()
            assert rank[0] == np.setdiff1d(draw.points[inside], tau).size  # distinct, not tau
            assert np.array_equal(block.field_values, values, equal_nan=True)
            assert rng.bit_generator.state == block_rng.bit_generator.state

    def _check_dense_route(self, s, seed) -> int:
        """Check that the block of one on stream ``seed`` is bit-equal to the
        dense route replayed from the same stream; returns its rank."""
        block_rng = np.random.default_rng(seed)
        block = _draw_block(s["model"], s["ctx"], s["zeta"], s["density"], s["m"], None, 1,
                            block_rng)
        rng, tau, value, draw = self._replay_design(s, seed)
        values, rank, _ = field._conditional_draw_block(
            s["model"], tau[None], np.array([value]), draw.points[draw.inside][None], rng)
        assert block.errors == {} and block.rank.tolist() == rank.tolist()
        assert np.array_equal(block.field_values[0, draw.inside], values[0])
        assert rng.bit_generator.state == block_rng.bit_generator.state
        return int(rank[0])

    def test_a_draw_past_the_column_cap_takes_the_dense_route(self, large_m, monkeypatch):
        monkeypatch.setattr(field, "_COLUMN_CAP", 4)
        for i in range(3):
            assert self._check_dense_route(large_m, (65, i)) > 4

    def test_user_kernels_take_the_dense_route(self, large_m):
        base = ex.SquaredExponential()
        wrapped = ex.FieldModel(large_m["model"].domain, lambda a, b, out=None: base(a, b, out=out),
                                regularity=base.regularity)
        assert not field._has_low_rank_columns(wrapped)
        self._check_dense_route({**large_m, "model": wrapped}, (66, 0))

        # an indefinite user kernel is still caught, and drops its replicate
        seed = (66, 1)
        _, _, _, draw = self._replay_design(large_m, seed)
        faulty = ex.FieldModel(large_m["model"].domain,
                               _faulty_kernel(draw.points[draw.inside][0], "indefinite"),
                               regularity=base.regularity)
        block = _draw_block(faulty, large_m["ctx"], large_m["zeta"], large_m["density"],
                            large_m["m"], None, 1, np.random.default_rng(seed))
        assert list(block.errors) == [0] and isinstance(block.errors[0], SingularModelError)
        assert "is indefinite" in str(block.errors[0])

    def test_design_outside_t_draws_no_field(self, large_m, monkeypatch):
        s = large_m
        original = engine.sample_design_block

        def outside(*args, **kwargs):
            draws = original(*args, **kwargs)
            points = draws.points + 10.0
            inside = s["model"].domain.contains(points.reshape(-1, 1)).reshape(points.shape[:2])
            return dataclasses.replace(draws, points=points, inside=inside)

        monkeypatch.setattr(engine, "sample_design_block", outside)
        seed = (62, 0)
        rng = np.random.default_rng(seed)
        integrand = ex.IntegrandSpec.constant(1.0, s["model"])
        block = _draw_block(s["model"], s["ctx"], s["zeta"], s["density"], s["m"],
                            integrand, 1, rng)
        assert not block.draws.inside.any()
        assert np.isnan(block.field_values).all()
        assert block.errors == {} and block.rank.tolist() == [0]
        assert block.mes.tolist() == [0.0]
        assert block.log_z.tolist() == [-np.inf] and block.log_y.tolist() == [-np.inf]
        replay, _, _, _ = self._replay_design(s, seed)  # no field normals after it
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("kernel, b, target", [
        pytest.param("sqexp", 6.0, "sup_tail", id="sqexp-b6"),
        pytest.param("sqexp", 8.0, "sup_tail", id="sqexp-b8"),
        pytest.param("exponential", 6.0, "excursion_integral", id="exponential-b6")])
    def test_estimates_match_their_oracles_at_m_320(self, kernel, b, target):
        # the oracle band is 4 sigma plus 1% for the finite-m bias at m = 320
        domain = ex.BoxDomain([0.0], [1.0])
        if kernel == "sqexp":
            model = ex.FieldModel(domain, ex.SquaredExponential())
            truth = math.exp(ex.log_rice_tail(b, 1.0, 2.0))
            report = ex.estimate_tail(model, b, 1000, 320, seed=(320, int(b)))
        else:
            model = ex.FieldModel(domain, ex.Exponential())
            truth = ex.expected_excursion_measure(model, b)
            _, report = ex.estimate_tail_and_excursion(model, b, 1000, 320,
                                                       seed=(320, 1, int(b)))
        assert report.target == target and report.errored == 0
        assert abs(report.estimate - truth) <= 4.0 * report.std_err + 0.01 * truth


# Relative allowance for the finite-m bias at m=40: the 2-d excursion-integral
# rows run 3-5% high whatever the tau proposal.
_M40_BIAS_ALLOWANCE = 0.06


class TestProposalWeight:
    def test_excursion_integral_is_exact_for_any_proposal(self, trend_model):
        # the forced one-cell proposal draws tau uniformly, away from the tau
        # density on the trend model.  The corner integrand weights the
        # low-mean corner, where the unratioed weight I_gamma / mes runs about
        # 16% high on uniform tau; n = 8000 resolves that past both checks.
        model, b, m, n = trend_model, 5.0, 40, 8000
        grid = ex.measure_context(model, b)
        one_cell = dataclasses.replace(grid, **_grid_sampler_tables(model, grid.gamma, 1))
        zeta, density = ex.cluster_scale(model, b), ex.DesignDensity(2, 4, 0.625)

        def corner(p):
            return 0.05 + np.prod(np.clip(1.0 - p, 0.0, 1.0), axis=1)

        nodes, weights = np.polynomial.legendre.leggauss(40)
        x, w = (nodes + 1.0) / 2.0, np.outer(weights, weights).ravel() / 4.0
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        cases = [(ex.IntegrandSpec.constant(1.0, model), ex.expected_excursion_measure(model, b)),
                 (ex.IntegrandSpec.from_function(corner, 0.05, 1.05, model),
                  float(w @ (corner(pts) * ex.marginal_tail(model, pts, b))))]
        for k, (integrand, truth) in enumerate(cases):
            reports = []
            for j, ctx in enumerate((grid, one_cell)):
                kept, errored = _run_blocks(
                    lambda rng, lo, hi: _draw_block(model, ctx, zeta, density, m, integrand,
                                                    hi - lo, rng),
                    n, block_size(m), (61, k, j), workers=1)
                assert errored == 0
                report = ex.aggregate(log_values=kept.log_y)
                assert abs(report.estimate - truth) <= (4.0 * report.std_err
                                                        + _M40_BIAS_ALLOWANCE * truth)
                reports.append(report)
            # the finite-m bias is shared, so the two proposals agree within 4 sigma
            a, c = reports
            assert abs(a.estimate - c.estimate) <= 4.0 * math.hypot(a.std_err, c.std_err)


class TestPickands:
    def test_formula_inversion(self):
        b, alpha, c = 7.0, 2.0, 0.73
        w_hat = b ** (2.0 / alpha) * float(ex.gaussian_tail(b)) * c
        assert ex.pickands_estimate(alpha, b, w_hat) == pytest.approx(c, rel=1e-12)

    def test_alpha_one_arithmetic(self):
        w_hat = 1e-13
        expected = w_hat / (64.0 * float(ex.gaussian_tail(8.0)))
        assert ex.pickands_estimate(1.0, 8.0, w_hat) == pytest.approx(expected, rel=1e-12)

    def test_level_forty_stays_finite(self):
        # P(Z > 40) ~ 3.7e-350 underflows; the denominator goes through logs.
        # Oracle: the Mills-ratio series for log P(Z > 40).
        b = 40.0
        inv2 = 1.0 / (b * b)
        log_tail = (-0.5 * b * b - math.log(b) - 0.5 * math.log(2.0 * math.pi)
                    + math.log(1.0 - inv2 + 3.0 * inv2 ** 2 - 15.0 * inv2 ** 3))
        got = ex.pickands_estimate(2.0, b, 1e-300)
        assert math.isfinite(got)
        assert math.log(got) == pytest.approx(math.log(1e-300) - math.log(b) - log_tail,
                                              rel=1e-12)

    def test_estimator_at_level_forty(self):
        # exact level-b prefactor from the Rice tail: 1/b + exp(-b^2/2)/(sqrt(2) pi b P(Z > b))
        b = 40.0
        report = ex.estimate_pickands(2.0, b, 2000, 40, seed=41)
        rice = 1.0 / b + math.exp(-0.5 * b * b - float(ex.log_gaussian_tail(b))) / (
            math.sqrt(2.0) * math.pi * b)
        assert math.isfinite(report.estimate) and math.isfinite(report.std_err)
        assert 0.0 < report.std_err < report.estimate
        assert abs(report.estimate / rice - 1.0) <= 0.1

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ex.pickands_estimate(0.0, 8.0, 1e-13)
        with pytest.raises(ConfigurationError):
            ex.estimate_pickands(2.5, 6.0, 10)

    def test_estimator_smoke(self):
        report = ex.estimate_pickands(2.0, 6.0, 400, 20, seed=31)
        assert report.target == "pickands_constant"
        # crude sanity: the smooth-kernel prefactor sits near 0.7 at b=6
        assert 0.3 < report.estimate < 1.5
