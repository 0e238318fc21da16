"""Tests of the benchmark itself, at a tiny replicate count.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from bench import END_TO_END, WORKLOADS, run_workload  # noqa: E402
from tracing import COUNT_POINT, PATCH_POINTS, PER_LAYER  # noqa: E402

TINY = 8
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _attribute_points():
    return [(module, attr) for module, attr, _ in PATCH_POINTS] + [COUNT_POINT]


def test_spec_records_workloads_and_metrics():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: entry[:2] for name, entry in PER_LAYER.items()}


def test_entry_point_lists_every_workload():
    import run

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_every_layer_metric_names_what_it_moves_and_where():
    known = set(END_TO_END) | set(PER_LAYER)
    for name, (_, _, moves, workloads) in PER_LAYER.items():
        assert set(moves) <= known, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def _check_emitted(metrics: dict, expected: dict):
    assert list(metrics) == list(expected)
    for name, entry in metrics.items():
        assert entry["unit"] == expected[name][0]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run_workload(name, seed=3, seconds=0, trace=False, replicates=TINY)
    _check_emitted(result.metrics, END_TO_END)
    assert result.attempted == TINY * len(WORKLOADS[name].labels) * (
        3 if name.startswith("large-m") else 6)
    assert result.identical is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_bit_identical_and_restores_originals(name, tmp_path):
    originals = {point: getattr(importlib.import_module(point[0]), point[1])
                 for point in _attribute_points()}
    result = run_workload(name, seed=3, seconds=0, trace=True, replicates=TINY,
                          trace_dir=str(tmp_path))
    assert result.identical is True
    _check_emitted(result.metrics, {k: v[:2] for k, v in PER_LAYER.items()})
    for key in ("field.factor_us", "field.moments_us", "design.sample_us",
                "engine.self_us_per_rep", "trace.coverage_frac"):
        assert result.metrics[key]["value"] > 0.0, key
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, attr
    spans = np.load(tmp_path / f"{name}-seed3.npz")
    assert spans["start_ns"].size == spans["end_ns"].size == spans["parent"].size > 0
    assert np.all(spans["end_ns"] >= spans["start_ns"])


def test_same_seed_same_configs():
    from bench import SeedStream

    for workload in WORKLOADS.values():
        first, second = SeedStream(workload, 11), SeedStream(workload, 11)
        assert [first.next() for _ in range(5)] == [second.next() for _ in range(5)]
