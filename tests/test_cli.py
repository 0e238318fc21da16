import csv
import io

import pytest

import excursim as ex
from excursim import cli
from excursim.cli import (
    ExperimentConfig,
    TABLE_COLUMNS,
    TARGETS,
    build_config,
    main,
    parse_config_file,
    table_config,
)
from excursim.engine import block_size
from excursim.errors import ConfigurationError
from excursim.presets import parse_domain, parse_kernel, parse_mean


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def no_replicates(*args, **kwargs):
    raise AssertionError("a replicate ran")


class TestSpecParsers:
    def test_kernel_specs(self):
        assert isinstance(parse_kernel("cosine"), ex.CosineProcess)
        assert parse_kernel("sqexp:ell=2").ell == 2.0
        assert parse_kernel("exponential:ell=4").ell == 4.0
        k = parse_kernel("powerexp:alpha=1.5,ell=0.5")
        assert (k.shape, k.ell) == (1.5, 0.5)

    def test_kernel_errors(self):
        with pytest.raises(ConfigurationError):
            parse_kernel("matern:nu=1.5")
        with pytest.raises(ConfigurationError):
            parse_kernel("powerexp:ell=1")  # alpha required
        with pytest.raises(ConfigurationError, match="sqexp takes no foo"):
            parse_kernel("sqexp:ell=0.5,foo=3")
        with pytest.raises(ConfigurationError, match="cosine takes no ell"):
            parse_kernel("cosine:ell=9")

    def test_domain_specs(self):
        box = parse_domain("0,1;0,2")
        assert box.dimension == 2 and box.measure == pytest.approx(2.0)
        assert parse_domain("0,0.75").dimension == 1
        with pytest.raises(ConfigurationError):
            parse_domain("0;1")
        with pytest.raises(ConfigurationError):
            parse_domain("1,0")

    def test_mean_specs(self):
        assert parse_mean("0.25") == 0.25
        mean = parse_mean("linear:0.1,0.1")
        assert mean(ex.field.as_points([[1.0, 1.0]], 2))[0] == pytest.approx(0.2)
        with pytest.raises(ConfigurationError):
            parse_mean("quadratic:1")


class TestConfig:
    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table1\nn = 64\nm = 10\nb = 3,4  # levels\n")
        values = parse_config_file(str(path))
        assert values == {"experiment": "table1", "n": "64", "m": "10", "b": "3,4"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table1\nbogus = 1\n")
        with pytest.raises(ConfigurationError, match="bogus"):
            parse_config_file(str(path))

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table1\nn = 64\nseed = 5\n")
        config = table_config(str(path), {"n": 128})
        assert config.n == 128 and config.seed == 5

    def test_config_file_inherits_preset_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table3\nn = 50\n")
        config = table_config(str(path), {})
        assert config.m == 40 and config.scale == 0.625
        assert "excursion_integral" in config.targets
        assert config.n == 50

    def test_config_file_unknown_experiment(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table17\n")
        with pytest.raises(ConfigurationError, match="table17"):
            table_config(str(path), {})

    def test_preset_source(self):
        config = table_config("table2", {})
        assert config.m == 40 and config.scale == 0.625
        assert "excursion_integral" in config.targets

    def test_unknown_source(self):
        with pytest.raises(ConfigurationError):
            table_config("table9", {})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(b=(0.5,))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(format="yaml")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(seed=-1)

    def test_preset_builder_and_oracle_name_are_not_configuration(self):
        base = {"kernel": "sqexp", "domain": "0,1", "targets": TARGETS}
        plain = build_config(base, {"m": 20})
        named = build_config({**base, "model": None, "oracle": "excursion_quadrature"},
                             {"m": 20})
        assert named == plain

    def test_digest_stable_and_sensitive(self):
        a = build_config({"experiment": "table1", "model": None}, {"n": 50})
        b = build_config({"experiment": "table1", "model": None}, {"n": 50})
        c = build_config({"experiment": "table1", "model": None}, {"n": 51})
        assert a.digest == b.digest
        assert a.digest != c.digest
        assert len(a.digest) == 12

    def test_target_order_does_not_change_the_digest(self):
        base = {"kernel": "sqexp", "domain": "0,1"}
        given = build_config(base, {"targets": "excursion_integral,sup_tail"})
        ordered = build_config(base, {"targets": "sup_tail,excursion_integral"})
        assert given.targets == ordered.targets == TARGETS
        assert given.digest == ordered.digest
        assert given.digest != build_config(base, {"targets": "sup_tail"}).digest

    @pytest.mark.parametrize("text, timing", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("false", False), ("No", False), ("off", False)])
    def test_timing_reads_a_switch(self, tmp_path, text, timing):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = table1\ntiming = {text}\n")
        assert table_config(str(path), {}).timing is timing

    @pytest.mark.parametrize("text", ["ture", "", "2", "enabled"])
    def test_timing_typo_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = table1\nn = 50\nm = 10\nb = 3\ntiming = {text}\n")
        code = main(["table", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: invalid value for timing: {text!r}\n"


class TestTableCommand:
    def test_table1_small_run(self, capsys, tmp_path):
        out_path = tmp_path / "t1.csv"
        code, out = run_cli(["table", "table1", "--n", "64", "--m", "10",
                             "--b", "3,4", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text() == out
        rows = parse_csv(out)
        assert tuple(rows[0].keys()) == TABLE_COLUMNS
        assert [r["b"] for r in rows] == ["3", "4"]
        for row in rows:
            est, se, tv = float(row["est"]), float(row["std_err"]), float(row["true_value"])
            assert est > 0 and se > 0 and tv > 0
            assert row["wall_time_ms"] == ""  # deterministic output by default
            assert row["errored_replicates"] == "0"
            assert row["schema_version"] == "1"

    def test_byte_identical_reruns(self, capsys):
        args = ["table", "table1", "--n", "50", "--m", "10", "--b", "3"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_worker_count_does_not_change_bytes(self, capsys):
        # blocks of block_size(64) = 31: n = 100 spans four blocks
        assert block_size(64) < 100 // 2
        base = ["table", "table1", "--n", "100", "--m", "64", "--b", "3"]
        _, one = run_cli(base + ["--workers", "1"], capsys)
        _, four = run_cli(base + ["--workers", "4"], capsys)
        assert one == four

    def test_timing_flag_fills_wall_time(self, capsys):
        code, out = run_cli(["table", "table1", "--n", "50", "--m", "10",
                             "--b", "3", "--timing"], capsys)
        assert code == 0
        assert float(parse_csv(out)[0]["wall_time_ms"]) > 0

    def test_excursion_rows_present_for_2d_preset(self, capsys):
        code, out = run_cli(["table", "table2", "--n", "50", "--m", "10",
                             "--b", "3"], capsys)
        assert code == 0
        rows = parse_csv(out)
        targets = {r["target"] for r in rows}
        assert targets == {"sup_tail", "excursion_integral"}
        tail_row = next(r for r in rows if r["target"] == "sup_tail")
        exc_row = next(r for r in rows if r["target"] == "excursion_integral")
        assert tail_row["true_value"] == ""  # no closed form for the sup tail
        assert float(exc_row["true_value"]) > 0

    def test_config_file_custom_run_matches_the_estimate_flags(self, capsys, tmp_path):
        # the same configuration, so the same digest and the same bytes: the
        # excursion row takes its quadrature oracle on both paths
        path = tmp_path / "run.cfg"
        path.write_text("kernel = sqexp\ndomain = 0,1\nb = 3\nn = 50\nm = 20\n"
                        "targets = sup_tail,excursion_integral\n")
        code, from_file = run_cli(["table", str(path)], capsys)
        _, from_flags = run_cli(["estimate", "--kernel", "sqexp", "--domain", "0,1",
                                 "--b", "3", "--n", "50", "--m", "20",
                                 "--with-excursion"], capsys)
        assert code == 0 and from_file == from_flags
        exc = next(r for r in parse_csv(from_file) if r["target"] == "excursion_integral")
        assert exc["true_value"] == "1.3498980316e-03"

    @pytest.mark.parametrize("name", sorted(ex.PRESETS))
    def test_config_file_with_a_preset_model_text_prints_its_rows(self, capsys, tmp_path,
                                                                 name):
        # the preset's model text and settings, without its experiment name:
        # every column but the digest matches, and the true value too unless
        # the preset names a sup-tail oracle (table1)
        spec = ex.PRESETS[name]
        keys = {**spec["model"], "dof": spec["dof"], "scale": spec["scale"], "m": spec["m"],
                "seed": spec["seed"], "b": ",".join(f"{b:g}" for b in spec["b"]),
                "targets": ",".join(spec["targets"])}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        code, from_file = run_cli(["table", str(path), "--n", "30"], capsys)
        _, from_preset = run_cli(["table", name, "--n", "30"], capsys)
        assert code == 0
        skip = {"config_digest"} | ({"true_value"} if "oracle" in spec else set())
        file_rows, preset_rows = parse_csv(from_file), parse_csv(from_preset)
        assert len(file_rows) == len(spec["b"]) * len(spec["targets"])
        for file_row, preset_row in zip(file_rows, preset_rows, strict=True):
            assert {k: v for k, v in file_row.items() if k not in skip} == \
                {k: v for k, v in preset_row.items() if k not in skip}
            assert file_row["config_digest"] != preset_row["config_digest"]

    def test_gnuplot_format(self, capsys):
        code, out = run_cli(["table", "table1", "--n", "50", "--m", "10",
                             "--b", "3", "--format", "gnuplot"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# b target")
        assert "NA" in lines[1]  # blank wall time rendered as NA

    def test_unknown_preset_exit_code(self, capsys):
        code, _ = run_cli(["table", "table9"], capsys)
        assert code == 2

    def test_rows_match_engine_reports_exactly(self, capsys):
        # the CLI derives per-level seeds as (seed, level_index); its rows must
        # reproduce direct engine runs bit for bit
        code, out = run_cli(["table", "table1", "--n", "300", "--m", "20",
                             "--b", "3,5", "--seed", "2718"], capsys)
        assert code == 0
        rows = parse_csv(out)
        model = ex.preset_model("table1")
        density = ex.DesignDensity(1, 3, 1.0)
        for idx, b in enumerate((3.0, 5.0)):
            report = ex.estimate_tail(model, b, 300, 20, density=density,
                                      seed=(2718, idx))
            assert float(rows[idx]["est"]) == pytest.approx(report.estimate, rel=1e-10)
            assert float(rows[idx]["std_err"]) == pytest.approx(report.std_err, rel=1e-10)
            assert float(rows[idx]["true_value"]) == pytest.approx(
                ex.cosine_truth(b), rel=1e-10)


class TestEstimateCommand:
    def test_custom_cosine_run(self, capsys):
        code = main(["estimate", "--kernel", "cosine", "--domain", "0,0.75",
                     "--b", "3", "--n", "50", "--m", "10"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        row = parse_csv(captured.out)[0]
        assert row["target"] == "sup_tail"
        assert float(row["est"]) > 0

    def test_custom_run_with_excursion_oracle(self, capsys):
        code, out = run_cli(["estimate", "--kernel", "sqexp:ell=1",
                             "--domain", "0,1;0,1", "--mean", "linear:0.1,0.1",
                             "--b", "3", "--n", "50", "--m", "10",
                             "--with-excursion"], capsys)
        assert code == 0
        rows = parse_csv(out)
        exc = next(r for r in rows if r["target"] == "excursion_integral")
        assert float(exc["true_value"]) == pytest.approx(1.880225e-3, rel=1e-4)

    def test_underflowed_estimate_warns_on_stderr(self, capsys):
        code = main(["estimate", "--kernel", "sqexp", "--domain", "0,1",
                     "--b", "40", "--n", "50", "--m", "20"])
        captured = capsys.readouterr()
        assert code == 0
        assert float(parse_csv(captured.out)[0]["est"]) == 0.0
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "b=40 sup_tail" in lines[0]
        log10_est = float(lines[0].rsplit("=", 1)[1])
        # log10 of the Rice tail at b=40 (lambda2 = 2, T = 1): about -348.04
        assert -349.0 < log10_est < -347.0

    @pytest.mark.parametrize("model_args, row, warning", [
        (["--domain", "0,1", "--mean", "-20", "--b", "4", "--n", "100"],
         "4,sup_tail,,0.0000000000e+00,0.0000000000e+00,100,20,0,,0",
         "no replicate hit the level, so est 0.0 is no estimate"),
        (["--domain", "0,1e6", "--b", "4", "--n", "200"],
         "4,sup_tail,,8.1516359160e+01,5.3348161124e+00,200,20,0,,0",
         "est 81.52 exceeds 1, so it is no probability"),
    ], ids=["every-replicate-missed", "tail-above-one"])
    def test_estimate_that_cannot_be_right_warns_on_stderr(self, capsys, model_args, row,
                                                           warning):
        # the warning goes to stderr; the row keeps its bytes, digest aside
        code = main(["estimate", "--kernel", "sqexp", *model_args, "--m", "20"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == f"warning: b=4 sup_tail: {warning}\n"
        header, line = captured.out.splitlines()
        assert header == ",".join(TABLE_COLUMNS)
        assert line.rsplit(",", 2)[0] == row

    @pytest.mark.parametrize("flag, value", [
        ("--domain", "-1,0"), ("--mean", "-1e3"), ("--mean", "-0.5")])
    def test_flag_value_with_a_leading_minus(self, capsys, flag, value):
        args = {"--kernel": "sqexp", "--domain": "0,1", "--b": "4", "--n": "20",
                "--m": "20", flag: value}
        argv = ["estimate", *(word for pair in args.items() for word in pair)]
        assert vars(cli.build_parser().parse_args(argv))[flag[2:]] == value
        code, out = run_cli(argv, capsys)
        assert code == 0 and parse_csv(out)[0]["n"] == "20"

    def test_worker_count_does_not_change_bytes_at_inside_only_draws(self, capsys):
        # at m >= 256 blocks of 16 draw the field at the inside points only,
        # from one kernel-column factorization (sqexp; its width, the largest
        # inside count, changes from block to block) or as one chain
        # (exponential); n = 40 is three blocks
        assert block_size(256) == 16
        for kernel in ("sqexp", "exponential"):
            base = ["estimate", "--kernel", kernel, "--domain", "0,1", "--b", "6",
                    "--m", "256", "--n", "40"]
            code, one = run_cli(base + ["--workers", "1"], capsys)
            _, two = run_cli(base + ["--workers", "2"], capsys)
            assert code == 0 and float(parse_csv(one)[0]["est"]) > 0
            assert one == two

    def test_bad_kernel_exit_code(self, capsys):
        code, _ = run_cli(["estimate", "--kernel", "matern", "--domain", "0,1",
                           "--b", "3", "--n", "50", "--m", "5"], capsys)
        assert code == 2


class TestRejectedInputs:
    """Inputs the CLI used to accept and then ignore are usage errors."""

    def test_experiment_file_with_model_keys(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table1\nkernel = exponential\ndomain = 0,5\nn = 50\n")
        code, out = run_cli(["table", str(path)], capsys)
        assert code == 2 and out == ""

    def test_alpha_in_config_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = table1\nalpha = 1\nn = 50\n")
        code, out = run_cli(["table", str(path)], capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("spec", ["sqexp:ell=0.5,foo=3", "cosine:ell=9"])
    def test_unused_kernel_parameter(self, capsys, spec):
        code, out = run_cli(["estimate", "--kernel", spec, "--domain", "0,1",
                             "--b", "3", "--n", "50", "--m", "5"], capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("targets", ["sup_tial", "sup_tail,excursion", ""])
    def test_unknown_or_empty_targets(self, capsys, tmp_path, targets):
        path = tmp_path / "run.cfg"
        path.write_text(f"kernel = sqexp\ndomain = 0,1\nb = 3\nn = 50\nm = 20\n"
                        f"targets = {targets}\n")
        code, out = run_cli(["table", str(path)], capsys)
        assert code == 2 and out == ""

    def test_flag_value_that_does_not_parse(self, capsys):
        code = main(["table", "table1", "--n", "many"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: invalid value for n: 'many'\n"

    def test_estimate_without_m(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "estimate_tail", no_replicates)
        code = main(["estimate", "--kernel", "sqexp", "--domain", "0,1", "--b", "4",
                     "--n", "50"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: runs need m, the design points per replicate: "
                                "give --m or an m key\n")

    def test_eps_key_in_config_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "estimate_tail", no_replicates)
        path = tmp_path / "run.cfg"
        path.write_text("kernel = sqexp\ndomain = 0,1\nb = 3\nn = 50\neps = 0.5\n")
        code = main(["table", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}:5: unknown key 'eps'\n"

    def test_eps_flag(self, capsys, monkeypatch):
        # --eps is no flag: argparse exits 2 before any model is built
        monkeypatch.setattr(cli, "estimate_tail", no_replicates)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--kernel", "sqexp", "--domain", "0,1;0,1", "--b", "4",
                  "--n", "50", "--eps", "0.1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --eps 0.1" in captured.err

    @pytest.mark.parametrize("model_args, message", [
        (["--kernel", "cosine", "--domain", "0,1;0,1"],
         "kernel requires dimension 1, domain has 2"),
        (["--kernel", "sqexp", "--domain", "0,1;0,1", "--mean", "linear:0.1"],
         "linear mean needs one coefficient per axis (2)"),
        (["--kernel", "sqexp", "--domain", "0,1", "--mean", "linear:0.1,0.2"],
         "linear mean needs one coefficient per axis (1)"),
    ])
    def test_model_that_does_not_fit_the_domain(self, capsys, model_args, message):
        code = main(["estimate", *model_args, "--b", "3", "--n", "10", "--m", "10"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--mean", "nan", "mean must be finite"),
        ("--mean", "inf", "mean must be finite"),
        ("--kernel", "sqexp:ell=nan",
         "bad kernel spec 'sqexp:ell=nan': ell must be finite and positive"),
        ("--kernel", "sqexp:ell=inf",
         "bad kernel spec 'sqexp:ell=inf': ell must be finite and positive"),
        ("--scale", "nan", "scale must be finite and positive"),
        ("--scale", "inf", "scale must be finite and positive"),
        ("--mean", "linear:nan",
         "bad mean spec 'linear:nan': coeffs and intercept must be finite"),
    ], ids=["mean-nan", "mean-inf", "ell-nan", "ell-inf", "scale-nan", "scale-inf",
            "linear-nan"])
    def test_non_finite_input_exits_2_before_any_replicate(self, capsys, monkeypatch,
                                                           flag, value, message):
        monkeypatch.setattr(cli, "estimate_tail", no_replicates)
        args = {"--kernel": "sqexp", "--domain": "0,1", "--b": "4", "--n": "50",
                "--m": "20", flag: value}
        code = main(["estimate", *(word for pair in args.items() for word in pair)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestPickandsCommand:
    def test_small_run_and_rerun_identical(self, capsys):
        args = ["pickands", "--alpha", "2", "--b", "6", "--n", "60", "--m", "10"]
        code, first = run_cli(args, capsys)
        assert code == 0
        _, second = run_cli(args, capsys)
        assert first == second
        row = parse_csv(first)[0]
        assert row["alpha"] == "2" and float(row["est"]) > 0

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _ = run_cli(["pickands", "--alpha", "0", "--b", "6", "--n", "50"], capsys)
        assert code == 2
