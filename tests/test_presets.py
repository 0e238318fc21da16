import math

import pytest

import excursim as ex
from excursim import cli


class TestPresetCatalog:
    def test_expected_presets_present(self):
        assert set(ex.PRESETS) == {"table1", "table2", "table3", "table4"}

    def test_models_have_expected_structure(self):
        t1 = ex.preset_model("table1")
        assert t1.dimension == 1 and t1.domain.measure == pytest.approx(0.75)
        assert isinstance(t1.kernel, ex.CosineProcess)

        t2 = ex.preset_model("table2")
        assert t2.dimension == 2 and t2.constant_mean == 0.0
        assert t2.regularity.alpha1 == 2.0

        t3 = ex.preset_model("table3")
        assert t3.constant_mean is None

        t4 = ex.preset_model("table4")
        assert t4.regularity.alpha1 == 1.0
        assert t4.regularity.c1 == pytest.approx(0.25)

    def test_preset_density_mirrors_spec_entries(self):
        # the density the CLI and the benchmark build from a preset's config
        def density(name, overrides):
            return cli.config_density(cli.table_config(name, overrides), ex.preset_model(name))

        for name, spec in ex.PRESETS.items():
            d = density(name, {})
            assert (d.dim, d.dof, d.scale) == (ex.preset_model(name).dimension,
                                               spec["dof"], spec["scale"])
        d1 = density("table1", {})
        assert (d1.dim, d1.dof, d1.scale) == (1, 3.0, 1.0)
        assert density("table4", {"scale": 0.7}).scale == 0.7  # explicit override wins

    def test_replicate_counts_and_seeds_are_pinned(self):
        for name, spec in ex.PRESETS.items():
            assert spec["n"] == 1000
            assert spec["seed"] == 31415
            assert spec["m"] == (20 if name == "table1" else 40)

    def test_builders_return_fresh_instances(self):
        assert ex.preset_model("table1") is not ex.preset_model("table1")

    def test_model_is_built_from_the_preset_text(self, monkeypatch):
        assert ex.PRESETS["table4"]["model"] == {
            "kernel": "exponential:ell=4", "domain": "0,1;0,1", "mean": "linear:0.1,0.1"}
        monkeypatch.setitem(ex.PRESETS["table1"]["model"], "domain", "0,0.5")
        assert ex.preset_model("table1").domain.measure == pytest.approx(0.5)


class TestExtremeLevels:
    def test_estimator_stays_accurate_far_beyond_published_range(self):
        # event probability ~1e-87; relative accuracy should be unchanged
        model = ex.preset_model("table2")
        density = ex.DesignDensity(2, 4, 0.625)
        tail, integral = ex.estimate_tail_and_excursion(
            model, 20.0, 400, 40, density=density, seed=(99, 0))
        oracle = ex.expected_excursion_measure(model, 20.0)
        assert oracle == pytest.approx(float(ex.gaussian_tail(20.0)), rel=1e-12)
        assert abs(integral.estimate - oracle) < 4.0 * integral.std_err
        assert tail.estimate > 0.0
        assert tail.rel_std_err < 0.15
        assert tail.log_estimate == pytest.approx(math.log(tail.estimate))
