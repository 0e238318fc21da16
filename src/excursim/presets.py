"""Built-in experiment presets reproducing the four reference tables, and the
text every model is built from.

Each preset fixes the field model as the kernel, domain and mean text a user
would write (``model_from_text`` builds it, as it builds the model of a config
file or of ``estimate`` flags), the levels, replicate and design-point counts,
the base design density's degrees of freedom and scale (``cli.config_density``
builds the density from them) and a default seed, so a single command
reproduces a full table.  An entry whose sup tail has an exact oracle names it
under ``oracle`` (table1: ``cosine_truth``); every excursion-integral row takes
the quadrature oracle ``expected_excursion_measure``.  Design-density scales come
from the published density formulas, renormalized to integrate to one (the
printed normalizing constants are not consistent with true densities; see
README).
"""

from __future__ import annotations

from .errors import ConfigurationError
from .field import (
    BoxDomain,
    CosineProcess,
    Exponential,
    FieldModel,
    LinearMean,
    PowerExponential,
    SquaredExponential,
)

__all__ = ["PRESETS", "preset_model", "model_from_text", "parse_kernel", "parse_domain",
           "parse_mean"]


# Design density scales: renormalized versions of the published base
# densities.  d=1: t with dof 3, unit scale.  d=2 smooth tables print
# (1 + 0.64 |t|^2)^-3, i.e. dof 4 with dof*scale^2 = 1/0.64 -> scale 0.625;
# the rough table prints (1 + |t|^2)^-3 -> scale 0.5.
PRESETS: dict[str, dict] = {
    "table1": {
        # X cos t + Y sin t on [0, 3/4]: rank-two, closed-form tail
        "model": {"kernel": "cosine", "domain": "0,0.75"},
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 20, "dof": 3, "scale": 1.0,
        "targets": ("sup_tail",),
        "oracle": "cosine_truth",
        "seed": 31415,
    },
    "table2": {
        # zero-mean unit-variance field on [0,1]^2 with correlation exp(-|s-t|^2)
        "model": {"kernel": "sqexp", "domain": "0,1;0,1"},
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.625,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
    "table3": {
        # the same smooth kernel with linear trend 0.1 t1 + 0.1 t2
        "model": {"kernel": "sqexp", "domain": "0,1;0,1", "mean": "linear:0.1,0.1"},
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.625,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
    "table4": {
        # exponential correlation exp(-|s-t|/4) with the same linear trend
        "model": {"kernel": "exponential:ell=4", "domain": "0,1;0,1",
                  "mean": "linear:0.1,0.1"},
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.5,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
}


def preset_model(name: str) -> FieldModel:
    return model_from_text(**PRESETS[name]["model"])


def model_from_text(kernel: str, domain: str, mean: str = "0") -> FieldModel:
    """The model of kernel, domain and mean text: every preset, config file
    and ``estimate`` run builds its model here.  Bad text raises
    :class:`ConfigurationError`."""
    box, corr, field_mean = parse_domain(domain), parse_kernel(kernel), parse_mean(mean)
    if isinstance(field_mean, LinearMean) and field_mean.coeffs.size != box.dimension:
        raise ConfigurationError(f"linear mean needs one coefficient per axis ({box.dimension})")
    try:
        return FieldModel(box, corr, mean=field_mean)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"expected name=value in kernel spec, got {part!r}")
        key, _, value = part.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"invalid kernel parameter {part!r}") from exc
    return out


def parse_kernel(spec: str):
    """Kernel from ``name[:key=value,...]``; every parameter must be used."""
    name, _, params = spec.partition(":")
    name = name.strip().lower()
    kv = _parse_kv(params) if params else {}
    try:
        if name == "cosine":
            kernel = CosineProcess()
        elif name == "sqexp":
            kernel = SquaredExponential(kv.pop("ell", 1.0))
        elif name == "exponential":
            kernel = Exponential(kv.pop("ell", 1.0))
        elif name == "powerexp":
            kernel = PowerExponential(kv.pop("alpha"), kv.pop("ell", 1.0))
        else:
            raise ConfigurationError(
                f"unknown kernel {name!r} (cosine, sqexp, exponential, powerexp)")
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"bad kernel spec {spec!r}: {exc}") from exc
    if kv:
        raise ConfigurationError(
            f"bad kernel spec {spec!r}: {name} takes no {', '.join(sorted(kv))}")
    return kernel


def parse_domain(spec: str) -> BoxDomain:
    lower, upper = [], []
    for axis in spec.split(";"):
        parts = [p for p in axis.split(",") if p.strip()]
        if len(parts) != 2:
            raise ConfigurationError(f"each domain axis needs 'lo,hi', got {axis!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad domain spec {spec!r}") from exc
        lower.append(lo)
        upper.append(hi)
    try:
        return BoxDomain(lower, upper)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def parse_mean(spec: str):
    spec = spec.strip()
    if spec.startswith("linear:"):
        try:
            coeffs = [float(p) for p in spec[len("linear:"):].split(",") if p.strip()]
            if coeffs:
                return LinearMean(coeffs)
        except ValueError as exc:
            raise ConfigurationError(f"bad mean spec {spec!r}: {exc}") from exc
        raise ConfigurationError("linear mean needs at least one coefficient")
    try:
        return float(spec)
    except ValueError as exc:
        raise ConfigurationError(
            f"mean must be a constant or 'linear:c1,c2,...', got {spec!r}") from exc
