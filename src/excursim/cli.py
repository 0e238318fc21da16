"""Command-line front end: reproduce the reference tables and run custom models.

Subcommands
-----------
table <preset|config-path>   one CSV row per (level, target); presets
                             table1..table4 mirror the reference experiments
pickands                     prefactor estimates H_alpha across levels
estimate                     custom model given kernel/domain/mean specs

An :class:`ExperimentConfig` decides every row.  Configs are flat
``key = value`` text files; command-line flags override file or preset values,
and both are parsed by the one key table ``_KEYS``.  Every run takes the m
(design points) and n (replicates) it is given: a preset and ``pickands`` set
their own m, and a ``table`` or ``estimate`` run left without one exits 2
before any replicate is drawn.  An excursion-integral row's true value is
always the quadrature oracle; a sup-tail row has one only when its preset
names it.  Output is CSV (or a gnuplot-friendly variant) written to
--out and echoed to stdout.  Runs are byte-reproducible for a fixed seed and
any worker count; wall-clock timings are only written under --timing since
they would break byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import re
import sys
from dataclasses import dataclass

from .design import DesignDensity
from .engine import (
    EstimateReport,
    _pickands_model,
    estimate_pickands,
    estimate_tail,
    estimate_tail_and_excursion,
)
from .errors import ConfigurationError, ExcursimError, InvalidLevelError
from .field import FieldModel
from .oracles import cosine_truth, expected_excursion_measure
from .presets import PRESETS, model_from_text, preset_model

__all__ = ["ExperimentConfig", "run_table", "run_pickands", "main"]

SCHEMA_VERSION = 1
TABLE_COLUMNS = ("b", "target", "true_value", "est", "std_err", "n", "m", "seed",
                 "wall_time_ms", "errored_replicates", "config_digest", "schema_version")
PICKANDS_COLUMNS = ("alpha", "b", "est", "std_err", "n", "m", "seed",
                    "wall_time_ms", "errored_replicates", "config_digest", "schema_version")

TARGETS = ("sup_tail", "excursion_integral")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str | None = None
    kernel: str | None = None
    domain: str | None = None
    mean: str = "0"
    b: tuple = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    n: int = 1000
    m: int | None = None
    seed: int = 0
    dof: int | None = None
    scale: float | None = None
    alpha: float | None = None
    targets: tuple = ("sup_tail",)
    out: str | None = None
    workers: int = 1
    format: str = "csv"
    timing: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("n must be at least 2")
        if self.m is not None and self.m < 1:
            raise ConfigurationError("m must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not self.b or any(v <= 1.0 for v in self.b):
            raise ConfigurationError("levels b must all exceed 1")
        if not self.targets or not set(self.targets) <= set(TARGETS):
            raise ConfigurationError(f"targets {','.join(self.targets)!r} must be "
                                     f"one or both of {','.join(TARGETS)}")
        # one run, one digest: the targets are kept in TARGETS order
        self.targets = tuple(target for target in TARGETS if target in self.targets)
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")
        if self.format not in ("csv", "gnuplot"):
            raise ConfigurationError(f"unknown output format {self.format!r}")
        if self.alpha is not None and not 0.0 < self.alpha <= 2.0:
            raise ConfigurationError("alpha must lie in (0, 2]")

    @property
    def digest(self) -> str:
        semantic = {
            "experiment": self.experiment, "kernel": self.kernel,
            "domain": self.domain, "mean": self.mean, "alpha": self.alpha,
            "b": list(self.b), "n": self.n, "m": self.m, "seed": self.seed,
            "dof": self.dof, "scale": self.scale,
            "targets": list(self.targets),
        }
        canonical = ";".join(f"{k}={semantic[k]!r}" for k in sorted(semantic))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _parts(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a switch: {text!r}")
    return word in ("1", "true", "yes", "on")


# Every key a config file or a flag may set, with the parser of its text.
# alpha is not among them: only ``pickands --alpha`` sets it.
_KEYS = {
    "experiment": str, "kernel": str, "domain": str, "mean": str,
    "b": lambda text: tuple(float(part) for part in _parts(text)),
    "n": int, "m": int, "seed": int, "dof": int, "scale": float,
    "targets": lambda text: tuple(_parts(text)),
    "out": str, "workers": int, "format": str,
    "timing": _switch,
}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _parse(key: str, value):
    if key not in _KEYS or not isinstance(value, str):
        return value
    try:
        return _KEYS[key](value)
    except ValueError as exc:
        raise ConfigurationError(f"invalid value for {key}: {value!r}") from exc


def build_config(base: dict, overrides: dict) -> ExperimentConfig:
    """The config of ``base`` (a preset or a config file's values) with
    ``overrides`` (the flags given) on top; text values go through ``_KEYS``.

    A preset's ``model`` text and ``oracle`` name are not configuration:
    ``config_model`` builds the model and ``_true_value`` looks up the
    oracle, both by the experiment's name.
    """
    merged = {key: _parse(key, value) for key, value in {**base, **overrides}.items()
              if key not in ("model", "oracle")}
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def table_config(source: str, overrides: dict) -> ExperimentConfig:
    """Config from a preset name or a flat config file, plus CLI overrides.

    A config file that names a preset through its ``experiment`` key inherits
    that preset's defaults; file values override them, CLI flags override both.
    The preset fixes the model, so such a file may not set kernel, domain or mean.
    """
    if source in PRESETS:
        base = dict(PRESETS[source])
        base["experiment"] = source
        return build_config(base, overrides)
    if os.path.exists(source):
        values = parse_config_file(source)
        preset = values.get("experiment")
        if preset is None:
            return build_config(values, overrides)
        if preset not in PRESETS:
            raise ConfigurationError(f"unknown experiment {preset!r} in {source}")
        model_keys = sorted({"kernel", "domain", "mean"} & values.keys())
        if model_keys:
            raise ConfigurationError(f"{source}: experiment {preset!r} fixes the model; "
                                     f"remove {', '.join(model_keys)}")
        return build_config({**PRESETS[preset], **values}, overrides)
    raise ConfigurationError(
        f"{source!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a config file")


def config_model(config: ExperimentConfig) -> FieldModel:
    if config.experiment is not None:
        return preset_model(config.experiment)
    if config.kernel is None or config.domain is None:
        raise ConfigurationError("custom runs need both kernel and domain")
    return model_from_text(config.kernel, config.domain, config.mean)


def config_density(config: ExperimentConfig, model: FieldModel) -> DesignDensity:
    return DesignDensity(model.dimension, config.dof, config.scale)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10e}"
    return str(value)


def _row(config: ExperimentConfig, report: EstimateReport, true_value: float | None,
         extra: dict | None = None) -> dict:
    # values that repeat across rows and runs share one string, so a caller
    # that keeps the rows of many runs holds one copy of each
    row = {
        "b": sys.intern(f"{report.b:g}"),
        "target": report.target,
        "true_value": sys.intern(_fmt(true_value)),
        "est": _fmt(report.estimate),
        "std_err": _fmt(report.std_err),
        "n": sys.intern(str(report.n + report.errored)),
        "m": sys.intern(str(report.m)),
        "seed": sys.intern(str(config.seed)),
        "wall_time_ms": sys.intern(f"{report.wall_time_s * 1e3:.3f}") if config.timing else "",
        "errored_replicates": sys.intern(str(report.errored)),
        "config_digest": sys.intern(config.digest),
        "schema_version": sys.intern(str(SCHEMA_VERSION)),
    }
    if extra:
        row.update(extra)
    return row


def _true_value(config: ExperimentConfig, model: FieldModel, target: str,
                b: float) -> float | None:
    if target == "excursion_integral":
        return expected_excursion_measure(model, b)
    if PRESETS.get(config.experiment, {}).get("oracle") == "cosine_truth":
        return cosine_truth(b)
    return None


def _warning(report: EstimateReport) -> str | None:
    """Why a row's est cannot be read as it stands, or None."""
    if report.log_estimate == -math.inf:
        return "no replicate hit the level, so est 0.0 is no estimate"
    if report.estimate == 0.0:
        # the CSV carries the linear estimate, which underflows above b~38
        return f"est underflows to 0.0; log10(est) = {report.log_estimate / math.log(10.0):.4f}"
    if report.target == "sup_tail" and report.estimate > 1.0:
        return f"est {report.estimate:.4g} exceeds 1, so it is no probability"
    return None


def run_table(config: ExperimentConfig) -> list[dict]:
    """One row per (level, target), in level order."""
    if config.m is None:
        raise ConfigurationError("runs need m, the design points per replicate: "
                                 "give --m or an m key")
    model = config_model(config)
    density = config_density(config, model)
    rows = []
    for idx, b in enumerate(config.b):
        seed_key = (config.seed, idx)
        if "excursion_integral" in config.targets:
            tail, integral = estimate_tail_and_excursion(
                model, b, config.n, config.m, density=density, seed=seed_key,
                workers=config.workers)
            reports = [rep for rep in (tail, integral) if rep.target in config.targets]
        else:
            reports = [estimate_tail(model, b, config.n, config.m, density=density,
                                     seed=seed_key, workers=config.workers)]
        for report in reports:
            warning = _warning(report)
            if warning is not None:
                print(f"warning: b={b:g} {report.target}: {warning}", file=sys.stderr)
            rows.append(_row(config, report, _true_value(config, model, report.target, b)))
    return rows


def run_pickands(config: ExperimentConfig) -> list[dict]:
    """Rows of (alpha, b, H estimate, std err) across the requested levels."""
    if config.alpha is None:
        raise ConfigurationError("pickands runs need alpha in (0, 2]")
    density = config_density(config, _pickands_model(config.alpha))
    rows = []
    for idx, b in enumerate(config.b):
        report = estimate_pickands(config.alpha, b, config.n, config.m, density=density,
                                   seed=(config.seed, idx), workers=config.workers)
        rows.append(_row(config, report, None, extra={"alpha": f"{config.alpha:g}"}))
    return rows


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def render_rows(rows: list[dict], columns: tuple, fmt: str) -> str:
    if fmt == "gnuplot":
        lines = ["# " + " ".join(columns)]
        for row in rows:
            lines.append(" ".join(row.get(c, "") or "NA" for c in columns))
        return "\n".join(lines) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buffer.getvalue()


def emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", help="base seed for replicate streams")
    parser.add_argument("--n", help="replicates per level")
    parser.add_argument("--m", help="design points per replicate; required unless a "
                                    "preset sets it (pickands: 20)")
    parser.add_argument("--out", help="CSV output path (also echoed to stdout)")
    parser.add_argument("--workers",
                        help="worker threads, each taking whole replicate blocks (default 1)")
    parser.add_argument("--format", help="output format: csv (default) or gnuplot")
    parser.add_argument("--dof", help="design density degrees of freedom")
    parser.add_argument("--scale", help="design density scale")
    parser.add_argument("--timing", action="store_true",
                        help="fill wall_time_ms (makes output non-reproducible)")


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's namespace holds only the flags given (their defaults
    are suppressed), as text that ``build_config`` parses through ``_KEYS``."""
    parser = argparse.ArgumentParser(
        prog="excursim",
        description="Rare-event estimation for suprema of Gaussian random fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    given_only = {"argument_default": argparse.SUPPRESS}

    p_table = sub.add_parser("table", help="run a preset or config-file experiment",
                             **given_only)
    p_table.add_argument("source", help=f"preset ({', '.join(sorted(PRESETS))}) or config path")
    p_table.add_argument("--b", help="comma-separated levels, e.g. 3,4,5")
    _add_common(p_table)

    p_pick = sub.add_parser("pickands", help="estimate the tail prefactor H_alpha",
                            **given_only)
    p_pick.add_argument("--alpha", type=float, required=True,
                        help="correlation exponent in (0, 2]")
    p_pick.add_argument("--b", help="comma-separated levels (default 6,7,8)")
    _add_common(p_pick)

    p_est = sub.add_parser("estimate", help="run a custom model", **given_only)
    p_est.add_argument("--kernel", required=True,
                       help="cosine | sqexp[:ell=..] | exponential[:ell=..] | powerexp:alpha=..[,ell=..]")
    p_est.add_argument("--domain", required=True, help="per-axis 'lo,hi' joined by ';'")
    p_est.add_argument("--mean", help="constant or 'linear:c1,c2,...' (default 0)")
    p_est.add_argument("--b", help="comma-separated levels")
    p_est.add_argument("--with-excursion", action="store_true",
                       help="also estimate the expected excursion volume (integrand 1)")
    _add_common(p_est)

    # Python <= 3.12 reads only -N and -N.N as negative numbers and takes any
    # other word that starts with '-' for a flag, so ``--domain -1,1`` and
    # ``--mean -1e3`` lost their value; this is Python 3.13's rule: a dash,
    # an optional dot, then a digit
    for subparser in (p_table, p_pick, p_est):
        subparser._negative_number_matcher = re.compile(r"-\.?\d")

    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        if command == "table":
            config = table_config(flags.pop("source"), flags)
            rows = run_table(config)
        elif command == "pickands":
            config = build_config({"b": (6.0, 7.0, 8.0), "n": 1000, "m": 20}, flags)
            rows = run_pickands(config)
        else:
            base = {"targets": TARGETS} if flags.pop("with_excursion", False) else {}
            config = build_config(base, flags)
            rows = run_table(config)
        columns = PICKANDS_COLUMNS if command == "pickands" else TABLE_COLUMNS
        emit(render_rows(rows, columns, config.format), config.out)
    except (ConfigurationError, InvalidLevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExcursimError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
