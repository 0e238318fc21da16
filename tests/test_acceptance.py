"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every run is fully seeded and deterministic for any worker count.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import excursim as ex
from excursim.cli import main as cli_main
from excursim.engine import _draw_block

# published Monte Carlo estimates at n=1000, m=40 (tolerance anchors only;
# the sup-tail columns of the 2-d tables have no closed form)
PAPER_W = {
    "table2": {3.0: 9.3e-3, 4.0: 3.4e-4, 5.0: 4.2e-6, 6.0: 1.9e-8,
               7.0: 3.3e-11, 8.0: 1.9e-14},
    "table3": {3.0: 1.2e-2, 4.0: 5.0e-4, 5.0: 7.2e-6, 6.0: 3.5e-8,
               7.0: 6.7e-11, 8.0: 4.5e-14},
    "table4": {3.0: 1.4e-2, 4.0: 7.4e-4, 5.0: 1.5e-5, 6.0: 9.9e-8,
               7.0: 2.9e-10, 8.0: 2.6e-13},
}

LEVELS = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def table1_runs():
    spec = ex.PRESETS["table1"]
    model = ex.preset_model("table1")
    density = ex.DesignDensity(1, spec["dof"], spec["scale"])
    return {b: ex.estimate_tail(model, b, spec["n"], spec["m"], density=density,
                                seed=(spec["seed"], idx))
            for idx, b in enumerate(LEVELS)}


@pytest.fixture(scope="session")
def table_runs():
    out = {}
    for name in ("table2", "table3", "table4"):
        spec = ex.PRESETS[name]
        model = ex.preset_model(name)
        density = ex.DesignDensity(2, spec["dof"], spec["scale"])
        rows = []
        for idx, b in enumerate(LEVELS):
            tail, integral = ex.estimate_tail_and_excursion(
                model, b, spec["n"], spec["m"], density=density,
                seed=(spec["seed"], idx))
            rows.append((b, tail, integral, ex.expected_excursion_measure(model, b)))
        out[name] = rows
    return out


def test_criterion_1_cosine_table_reproduction(table1_runs):
    worst_dev, worst_rel = 0.0, 0.0
    for b, report in table1_runs.items():
        truth = ex.cosine_truth(b)
        dev = abs(report.estimate - truth) / report.std_err
        worst_dev = max(worst_dev, dev)
        worst_rel = max(worst_rel, report.rel_std_err)
    ok = worst_dev <= 4.0 and worst_rel <= 0.08
    _report(1, ok, f"max |est-truth| = {worst_dev:.2f} sigma (<=4), "
                   f"max rel std err = {worst_rel:.1%} (<=8%)")


def test_criterion_2_two_dimensional_tables(table_runs):
    details = []
    ok = True
    for name, rows in table_runs.items():
        worst_dev = max(abs(integral.estimate - oracle) / integral.std_err
                        for _, _, integral, oracle in rows)
        ratios = [tail.estimate / PAPER_W[name][b] for b, tail, _, _ in rows]
        positive = all(tail.estimate > 0 for _, tail, _, _ in rows)
        in_factor_two = all(0.5 <= r <= 2.0 for r in ratios)
        ok = ok and worst_dev <= 4.0 and positive and in_factor_two
        details.append(f"{name}: E(mes) max dev {worst_dev:.2f} sigma, "
                       f"w/published in [{min(ratios):.2f}, {max(ratios):.2f}]")
    _report(2, ok, "; ".join(details))


def test_criterion_3_bounded_relative_error(table1_runs, table_runs):
    details = []
    ok = True
    rel_by_table = {"table1": [r.rel_std_err for r in table1_runs.values()]}
    for name, rows in table_runs.items():
        rel_by_table[name] = [tail.rel_std_err for _, tail, _, _ in rows]
    for name, rels in rel_by_table.items():
        spread = max(rels) / min(rels)
        ok = ok and spread <= 2.0
        details.append(f"{name}: rel-err spread {spread:.2f}")
    _report(3, ok, "; ".join(details) + " (all <= 2)")


def test_criterion_4_constant_cost_per_replicate():
    spec = ex.PRESETS["table3"]
    model = ex.preset_model("table3")
    density = ex.DesignDensity(2, spec["dof"], spec["scale"])

    levels = {b: (ex.measure_context(model, b), ex.cluster_scale(model, b)) for b in (3.0, 8.0)}

    def replicate_seconds(attempt: int) -> dict:
        # the levels alternate replicate by replicate, so a slow spell of the
        # machine reaches both levels alike
        n = 300
        total = dict.fromkeys(levels, 0.0)
        for i in range(n):
            for b, (ctx, scales) in levels.items():
                start = time.perf_counter()
                rng = np.random.default_rng((555, attempt, i))
                _draw_block(model, ctx, scales, density, spec["m"], None, 1, rng)
                total[b] += time.perf_counter() - start
        return {b: t / n for b, t in total.items()}

    replicate_seconds(0)  # warm-up
    attempts = [replicate_seconds(attempt) for attempt in range(3)]
    best = {b: min(a[b] for a in attempts) for b in levels}
    low, high = best[3.0], best[8.0]
    ratio = high / low
    _report(4, ratio <= 1.5,
            f"per-replicate cost b=8 vs b=3: {high * 1e6:.0f}us / {low * 1e6:.0f}us "
            f"= {ratio:.2f} (<=1.5)")


def test_criterion_5_unbiasedness_oracle_suite():
    checks = []

    # ball-indicator tests for the volume estimators, 1e5 draws, 4 sigma
    density = ex.DesignDensity(2, 4, 1.0)
    domain = ex.BoxDomain([0.0, 0.0], [1.0, 1.0])
    radius, zeta, m, n = 0.3, 2.0, 8, 100_000
    ball_volume = math.pi * radius ** 2
    rng = np.random.default_rng(606)
    mes_vals = np.empty(n)
    alpha_vals = np.empty(n)
    for i in range(n):
        draw = ex.sample_design_points([0.5, 0.5], zeta, m, density, domain, rng)
        dist = np.linalg.norm(draw.points - draw.tau, axis=1)
        values = np.where(dist <= radius, 1.0, -1.0)
        mes_vals[i] = ex.mes_hat(values, 0.0, draw)
        alpha_vals[i] = ex.alpha_hat(np.full(m, 2.0), values, 0.0, draw, bounds=(2.0, 2.0))
    for label, vals, target in [("mes_hat", mes_vals, ball_volume),
                                ("alpha_hat", alpha_vals, 2.0 * ball_volume)]:
        se = vals.std(ddof=1) / math.sqrt(n)
        dev = abs(vals.mean() - target) / se
        checks.append((f"{label} ball dev {dev:.2f} sigma", dev <= 4.0))

    # truncated-tail sampler: KS distance < 0.01 at 1e5 draws
    rng = np.random.default_rng(707)
    for c in (-2.0, 0.0, 3.0, 8.0, 20.0):
        draws = ex.sample_truncated_tail(0.0, 1.0, c, rng, size=100_000)
        log_tail_c = float(ex.log_gaussian_tail(c))
        dist = stats.kstest(draws, lambda x: 1.0 - np.exp(ex.log_gaussian_tail(x) - log_tail_c))
        checks.append((f"KS(c={c:g}) {dist.statistic:.4f}", dist.statistic < 0.01))

    # location sampler chi-square against the tilted density on a 50x50 grid
    model = ex.preset_model("table3")
    ctx = ex.measure_context(model, 4.0)
    draws = ex.sample_tau(model, ctx, np.random.default_rng(808), size=50_000)
    cells = 50
    nodes, weights = np.polynomial.legendre.leggauss(3)
    edges = np.linspace(0.0, 1.0, cells + 1)
    half = 0.5 / cells
    centers = edges[:-1] + half
    axis_nodes = (centers[:, None] + half * nodes[None, :]).ravel()
    axis_w = np.tile(half * weights, cells)
    tails = ex.marginal_tail(model, np.stack(
        np.meshgrid(axis_nodes, axis_nodes, indexing="ij"), axis=-1).reshape(-1, 2),
        ctx.gamma).reshape(cells * 3, cells * 3)
    cell_mass = np.einsum("i,j,ij->ij", axis_w, axis_w, tails)
    cell_mass = cell_mass.reshape(cells, 3, cells, 3).sum(axis=(1, 3))
    probs = cell_mass / cell_mass.sum()
    counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges, edges])
    expected = probs * draws.shape[0]
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = float(stats.chi2.sf(stat, cells * cells - 1))
    checks.append((f"tau chi2 p={pval:.3g}", pval > 0.001))

    # conditional-Gaussian moments: cosine process given f(0)=5, point 0.5
    model = ex.preset_model("table1")
    rng = np.random.default_rng(909)
    n = 100_000
    cond = np.array([ex.sample_conditional(model, [0.0], 5.0, [[0.5]], rng)[0]
                     for _ in range(n)])
    var_target = 1.0 - math.cos(0.5) ** 2
    mean_target = 5.0 * math.cos(0.5)
    var_err = abs(cond.var(ddof=1) - var_target)
    mean_dev = abs(cond.mean() - mean_target) / math.sqrt(var_target / n)
    checks.append((f"conditional var err {var_err:.4f}", var_err < 0.01))
    checks.append((f"conditional mean dev {mean_dev:.2f} sigma", mean_dev <= 4.0))

    ok = all(flag for _, flag in checks)
    _report(5, ok, "; ".join(label for label, _ in checks))


def test_criterion_6_discretization_bias_contrast(table1_runs):
    grid = np.linspace(0.0, 0.75, 8)

    # deterministic relative bias of the fixed 8-point grid maximum
    bias = {b: 1.0 - ex.cosine_grid_tail(b, grid) / ex.cosine_truth(b)
            for b in (3.0, 4.0, 5.0)}
    grows = bias[3.0] < bias[4.0] < bias[5.0]

    # the crude Monte Carlo baseline agrees with the exact grid probability
    # and is dominated by the truth
    model = ex.preset_model("table1")
    mc = ex.crude_grid_mc(model, 3.0, 8, 1_000_000, np.random.default_rng(246))
    exact = ex.cosine_grid_tail(3.0, grid)
    mc_ok = (abs(mc.estimate - exact) <= 4.0 * mc.std_err
             and mc.estimate <= ex.cosine_truth(3.0) + 4.0 * mc.std_err)

    # the adaptive estimator's agreement does not degrade from b=3 to b=5
    dev3 = abs(table1_runs[3.0].estimate - ex.cosine_truth(3.0)) / table1_runs[3.0].std_err
    dev5 = abs(table1_runs[5.0].estimate - ex.cosine_truth(5.0)) / table1_runs[5.0].std_err
    adaptive_ok = dev3 <= 4.0 and dev5 <= 4.0

    ok = grows and mc_ok and adaptive_ok
    _report(6, ok,
            f"grid relative bias {bias[3.0]:.2%} -> {bias[4.0]:.2%} -> {bias[5.0]:.2%} "
            f"(growing), crude MC within {abs(mc.estimate - exact) / mc.std_err:.2f} sigma "
            f"of exact grid tail, adaptive devs {dev3:.2f}/{dev5:.2f} sigma at b=3/5")


def test_criterion_7_pickands_stability():
    """The relative error of the prefactor estimate stays level-independent.

    The normalized tail w(b)/(b P(Z>b)) of exp(-t^2) on [0, 1] is not
    constant in b (the exact values are 0.746, 0.718, 0.698 at b = 6, 7, 8),
    so each estimate is compared with its own exact Rice prefactor H_b, and
    the relative deviations at every pair of levels must agree within four
    combined standard errors.  m = 80 keeps the finite-m bias, which the
    paper bounds but does not remove, near 1%; each level's deviation and z
    against H_b are printed so that bias stays visible.
    """
    levels = (6.0, 7.0, 8.0)
    reports = {b: ex.estimate_pickands(2.0, b, 100_000, 80, seed=(1111, idx))
               for idx, b in enumerate(levels)}
    # H_b: the Rice tail of exp(-t^2) on [0, 1] (lambda_2 = 2) over b P(Z > b),
    # exact up to a term of relative order exp(-b^2/4) and an upper bound
    exact = {b: math.exp(ex.log_rice_tail(b, 1.0, 2.0) - math.log(b)
                         - float(ex.log_gaussian_tail(b))) for b in levels}
    rel_dev = {b: reports[b].estimate / exact[b] - 1.0 for b in levels}
    rel_se = {b: reports[b].std_err / exact[b] for b in levels}
    pairs = []
    ok = True
    for i, b1 in enumerate(levels):
        for b2 in levels[i + 1:]:
            gap = abs(rel_dev[b1] - rel_dev[b2])
            tol = 4.0 * math.hypot(rel_se[b1], rel_se[b2])
            ok = ok and gap <= tol
            pairs.append(f"({b1:g},{b2:g}): |d rel|={gap:.4f} vs 4sig={tol:.4f}")
    values = ", ".join(
        f"H({b:g})={reports[b].estimate:.4f} vs H_b={exact[b]:.4f} "
        f"({rel_dev[b]:+.2%}, z={rel_dev[b] / rel_se[b]:+.2f})" for b in levels)
    _report(7, ok, f"{values}; {'; '.join(pairs)}")


def test_criterion_8_byte_identical_determinism(tmp_path, capsys):
    model = ex.preset_model("table1")
    kwargs = dict(m=10, density=ex.DesignDensity(1, 3, 1.0), seed=1234)
    a = ex.estimate_tail(model, 4.0, 200, workers=1, **kwargs)
    b = ex.estimate_tail(model, 4.0, 200, workers=1, **kwargs)
    c = ex.estimate_tail(model, 4.0, 200, workers=4, **kwargs)
    engine_ok = (a.estimate, a.std_err) == (b.estimate, b.std_err) == (c.estimate, c.std_err)

    outputs = []
    for workers in ("1", "4", "1"):
        path = tmp_path / f"run_{len(outputs)}.csv"
        code = cli_main(["table", "table1", "--n", "60", "--m", "10", "--b", "3,4",
                         "--workers", workers, "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    cli_ok = outputs[0] == outputs[1] == outputs[2]

    _report(8, engine_ok and cli_ok,
            f"engine replicate streams identical across reruns/workers: {engine_ok}; "
            f"CLI output byte-identical across reruns/workers: {cli_ok}")
