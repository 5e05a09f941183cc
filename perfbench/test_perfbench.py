"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads
from tracer import Span


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),   # overlaps a
        Span(3, "c", 8.0, 12.0, 0, 0),  # runs past the parent's end
        Span(4, "g", 2.0, 3.0, 1, 0),   # grandchild: counts against a only
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_layer_metrics_are_per_op():
    spans = [
        Span(0, "bias_correction.estimate", 0.0, 4.0, None, 0),
        Span(1, "ridge_series.ridge_fit_all", 1.0, 2.0, 0, 0),
        Span(2, "bias_correction.estimate", 5.0, 7.0, None, 1),
    ]
    m = tracing.layer_metrics(spans, {"bootstrap.replicates": 400}, ops=2)
    assert m["bias_correction.estimate.calls"] == 1.0
    assert m["bias_correction.estimate.self_s"] == pytest.approx(2.5)
    assert m["ridge_series.ridge_fit_all.self_s"] == pytest.approx(0.5)
    assert m["bootstrap.replicates"] == 200.0
    assert m["jsonfmt.dumps.calls"] == 0.0
    assert set(m) == set(tracing.per_layer_names())


def test_tail_has_ten_ops_beyond_it():
    t = run.tail([float(v) for v in range(100, 0, -1)])
    assert t == {"value": 90.0, "percentile": 90.0, "ops": 100}
    t = run.tail([float(v) for v in range(1, 12)])
    assert t["value"] == 1.0 and t["ops"] == 11
    assert t["percentile"] == pytest.approx(100.0 / 11)
    assert run.tail([1.0] * 10) is None


def test_check_rejects_perturbed_t_bc():
    ref = workloads.load_reference()["estimate_n30000"]
    assert workloads.check(dict(ref), ref) == []
    bad = dict(ref, t_bc=ref["t_bc"] * (1.0 + 1e-9))
    assert any("t_bc" in p for p in workloads.check(bad, ref))


def test_check_requires_exact_t_hat_and_finite_values():
    ref = {"t_hat": 0.5, "t_bc": 0.6}
    assert workloads.check({"t_hat": 0.5 + 2**-53, "t_bc": 0.6}, ref)
    assert workloads.check({"t_hat": 0.5, "t_bc": float("nan")})


def test_tracer_skips_missing_functions_and_patches_rebound_names(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    dataset = types.ModuleType("fakepkg.dataset")
    cli = types.ModuleType("fakepkg.cli")
    nn_graph = types.ModuleType("fakepkg.nn_graph")

    def load_csv(path):
        return path

    def build_nn(points):  # argument renamed: the path count cannot be read
        return points

    dataset.load_csv = load_csv
    cli.load_csv = load_csv  # as after "from .dataset import load_csv"
    nn_graph.build_nn = build_nn
    for mod in (pkg, dataset, cli, nn_graph):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tr = tracing.Tracer()
    tr.install("fakepkg")
    try:
        assert "dataset.compute_ranks" in tr.absent
        assert "ridge_series.ghat_matrix" in tr.absent
        assert "dataset.load_csv" not in tr.absent
        cli.load_csv("a")  # outside an op: not recorded
        tr.op = 0
        assert cli.load_csv("b") == "b"
        assert nn_graph.build_nn("p") == "p"
        tr.op = None
    finally:
        tr.uninstall()
    assert cli.load_csv is load_csv and dataset.load_csv is load_csv
    assert [s.name for s in tr.spans] == ["dataset.load_csv", "nn_graph.build_nn"]
    assert "nn_graph.build_nn counts" in tr.absent
    m = tracing.layer_metrics(tr.spans, tr.counts, ops=1)
    assert m["dataset.load_csv.calls"] == 1.0
    assert m["ridge_series.ghat_matrix.calls"] == 0.0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
