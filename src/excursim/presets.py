"""Built-in experiment presets reproducing the four reference tables.

Each preset fixes the field model, levels, replicate and design-point counts,
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

from .field import (
    BoxDomain,
    CosineProcess,
    Exponential,
    FieldModel,
    LinearMean,
    SquaredExponential,
)

__all__ = [
    "cosine_process_model",
    "smooth_isotropic_model",
    "smooth_trend_model",
    "rough_trend_model",
    "PRESETS",
    "preset_model",
]


def cosine_process_model() -> FieldModel:
    """X cos t + Y sin t on [0, 3/4]: rank-two, closed-form tail."""
    return FieldModel(BoxDomain([0.0], [0.75]), CosineProcess())


def smooth_isotropic_model() -> FieldModel:
    """Zero-mean unit-variance field on [0,1]^2 with correlation exp(-|s-t|^2)."""
    return FieldModel(BoxDomain([0.0, 0.0], [1.0, 1.0]), SquaredExponential(1.0))


def smooth_trend_model() -> FieldModel:
    """Same smooth kernel with linear trend 0.1 t1 + 0.1 t2."""
    return FieldModel(BoxDomain([0.0, 0.0], [1.0, 1.0]), SquaredExponential(1.0),
                      mean=LinearMean([0.1, 0.1]))


def rough_trend_model() -> FieldModel:
    """Exponential correlation exp(-|s-t|/4) with the same linear trend."""
    return FieldModel(BoxDomain([0.0, 0.0], [1.0, 1.0]), Exponential(4.0),
                      mean=LinearMean([0.1, 0.1]))


# Design density scales: renormalized versions of the published base
# densities.  d=1: t with dof 3, unit scale.  d=2 smooth tables print
# (1 + 0.64 |t|^2)^-3, i.e. dof 4 with dof*scale^2 = 1/0.64 -> scale 0.625;
# the rough table prints (1 + |t|^2)^-3 -> scale 0.5.
PRESETS: dict[str, dict] = {
    "table1": {
        "model": cosine_process_model,
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 20, "dof": 3, "scale": 1.0,
        "targets": ("sup_tail",),
        "oracle": "cosine_truth",
        "seed": 31415,
    },
    "table2": {
        "model": smooth_isotropic_model,
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.625,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
    "table3": {
        "model": smooth_trend_model,
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.625,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
    "table4": {
        "model": rough_trend_model,
        "b": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "n": 1000, "m": 40, "dof": 4, "scale": 0.5,
        "targets": ("sup_tail", "excursion_integral"),
        "seed": 31415,
    },
}


def preset_model(name: str) -> FieldModel:
    return PRESETS[name]["model"]()

