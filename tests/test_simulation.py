"""Tests for the copula generator, closed-form truth, and study harness."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import ndtri

from nncorr.cli import RAW_CSV_HEADER, format_report, main, raw_csv_lines
from nncorr.errors import InputError
from nncorr.simulation import (
    CellSummary,
    CopulaConfig,
    gen_gaussian_copula,
    run_study,
    true_t,
)

# Correctly rounded doubles of (3/pi) * arcsin((1 + rho^2)/2) - 1/2, computed
# once with 50-digit interval arithmetic and frozen here.
TRUTH_REFERENCE = {
    0.3: 0.05041106052776434,
    0.5: 0.144703124224824,
    0.7: 0.3026516488101797,
    0.9: 0.5803880509898379,
}


# ---------------------------------------------------------------------------
# generator


def test_copula_config_validation():
    with pytest.raises(InputError):
        CopulaConfig(n=1, d=2, rho=0.5)
    with pytest.raises(InputError):
        CopulaConfig(n=10, d=0, rho=0.5)
    with pytest.raises(InputError):
        CopulaConfig(n=10, d=2, rho=1.0)
    with pytest.raises(InputError):
        CopulaConfig(n=10, d=2, rho=-0.1)
    with pytest.raises(InputError):
        CopulaConfig(n=10, d=2, rho=0.5, seed=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 50.5}, "need a whole number n, got 50.5"),
    ({"d": "2"}, "need a whole number d, got '2'"),
    ({"rho": "0.5"}, "need a number rho, got '0.5'"),
    ({"seed": None}, "need a whole number seed, got None"),
])
def test_copula_config_refuses_a_wrong_type(kwargs, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        CopulaConfig(**{"n": 50, "d": 2, "rho": 0.5, **kwargs})


@pytest.mark.parametrize("field, whole", [("n", 50.0), ("d", 2.0), ("seed", 3.0)])
def test_copula_config_stores_a_whole_float_as_its_int(field, whole):
    cfg = CopulaConfig(**{"n": 50, "d": 2, "rho": 0.5, "seed": 3, field: whole})
    assert type(getattr(cfg, field)) is int
    got = gen_gaussian_copula(cfg)
    want = gen_gaussian_copula(CopulaConfig(n=50, d=2, rho=0.5, seed=3))
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.y, want.y)


def test_generator_shapes_and_range():
    s = gen_gaussian_copula(CopulaConfig(n=200, d=4, rho=0.5, seed=3))
    assert s.x.shape == (200, 4) and s.y.shape == (200,)
    assert s.x.min() > 0.0 and s.x.max() < 1.0
    assert s.y.min() > 0.0 and s.y.max() < 1.0


def test_generator_is_deterministic_per_seed():
    cfg = CopulaConfig(n=50, d=3, rho=0.7, seed=12)
    a = gen_gaussian_copula(cfg)
    b = gen_gaussian_copula(cfg)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = gen_gaussian_copula(CopulaConfig(n=50, d=3, rho=0.7, seed=13))
    assert not np.array_equal(a.x, c.x)


def test_generator_independence_at_rho_zero():
    s = gen_gaussian_copula(CopulaConfig(n=10000, d=2, rho=0.0, seed=5))
    corr = np.corrcoef(s.x[:, 0], s.y)[0, 1]
    assert abs(corr) < 0.03


def test_generator_latent_correlation_matches_rho():
    s = gen_gaussian_copula(CopulaConfig(n=10000, d=2, rho=0.9, seed=6))
    corr = np.corrcoef(ndtri(s.x[:, 0]), ndtri(s.y))[0, 1]
    assert abs(corr - 0.9) < 0.02


def test_generator_only_first_covariate_matters():
    s = gen_gaussian_copula(CopulaConfig(n=10000, d=3, rho=0.9, seed=7))
    strong = np.corrcoef(ndtri(s.x[:, 0]), ndtri(s.y))[0, 1]
    weak = np.corrcoef(ndtri(s.x[:, 1]), ndtri(s.y))[0, 1]
    assert strong > 0.85
    assert abs(weak) < 0.03


# ---------------------------------------------------------------------------
# closed-form truth


def test_true_t_endpoints_exact():
    assert true_t(0.0) == 0.0
    assert true_t(1.0) == 1.0


def test_true_t_reference_values():
    for rho, ref in TRUTH_REFERENCE.items():
        assert abs(true_t(rho) - ref) <= 1e-12


def test_true_t_strictly_increasing():
    grid = np.linspace(0.0, 1.0, 101)
    vals = [true_t(r) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_true_t_domain():
    with pytest.raises(InputError):
        true_t(-0.01)
    with pytest.raises(InputError):
        true_t(1.01)
    with pytest.raises(InputError, match="^need a number rho, got '0.5'$"):
        true_t("0.5")


# ---------------------------------------------------------------------------
# run_study


def test_study_validation_happens_up_front():
    with pytest.raises(InputError):
        run_study([], reps=2)
    with pytest.raises(InputError):
        run_study([(0.5, 2, 40)], reps=0)
    with pytest.raises(InputError):
        run_study([(0.5, 2, 40)], reps=2, alpha=1.0)
    with pytest.raises(InputError):
        run_study([(1.5, 2, 40)], reps=2)
    with pytest.raises(InputError):
        run_study([(0.5, 0, 40)], reps=2)
    with pytest.raises(InputError):
        run_study([(0.5, 2, 40)], reps=2, seed=-1)


@pytest.mark.parametrize("options, message", [
    (dict(b_reps=1), "need b_reps >= 2, got 1"),
    (dict(alpha=1.5), "alpha must lie strictly between 0 and 1, got 1.5"),
    (dict(seed=-1), "seed path entries must be non-negative, got -1"),
    (dict(grid=[(0.5, 2, 40), (0.5, 200, 40)]),
     "basis would have 20301 functions, above the cap of 10000; lower the degree"),
    (dict(alpha="0.1"), "need a number alpha, got '0.1'"),
    (dict(alpha=None), "need a number alpha, got None"),
], ids=["b_reps", "alpha", "seed", "basis", "alpha-string", "alpha-none"])
def test_study_options_are_checked_before_any_replication(monkeypatch, options, message):
    import nncorr.bootstrap as bootstrap

    def forbidden(*args, **kwargs):
        raise AssertionError("a replication ran before the options were checked")

    monkeypatch.setattr(bootstrap, "estimate", forbidden)
    with pytest.raises(InputError) as exc:
        run_study(**{"grid": [(0.5, 2, 40)], "reps": 2, **options})
    assert str(exc.value) == message


def test_study_runs_the_cell_it_checked():
    # A whole-number float d or n runs as the int it equals; any other
    # float is refused before a replication runs.
    rec_int, rec_float = [], []
    as_int = run_study([(0.5, 3, 30)], reps=1, b_reps=10, records=rec_int)
    as_float = run_study([(0.5, 3.0, 30.0)], reps=1, b_reps=10, records=rec_float)
    assert as_float == as_int and rec_float == rec_int
    assert (as_float[0].d, as_float[0].n) == (3, 30)
    with pytest.raises(InputError, match="^need a whole number n, got 30.7$"):
        run_study([(0.5, 3, 30.7)], reps=1, b_reps=10)
    with pytest.raises(InputError, match="^need a whole number d, got 2.5$"):
        run_study([(0.5, 2.5, 30)], reps=1, b_reps=10)


@pytest.mark.parametrize("option, whole, as_int", [
    ("reps", 2.0, 2), ("b_reps", 20.0, 20), ("seed", 3.0, 3),
], ids=["reps", "b_reps", "seed"])
def test_study_runs_whole_float_options_as_ints(option, whole, as_int):
    options = {"reps": 2, "b_reps": 20, "seed": 3}
    rec_int, rec_float = [], []
    as_ints = run_study([(0.5, 2, 40)], **{**options, option: as_int}, records=rec_int)
    as_floats = run_study([(0.5, 2, 40)], **{**options, option: whole}, records=rec_float)
    assert as_floats == as_ints and rec_float == rec_int


@pytest.mark.parametrize("option, value", [
    ("reps", 1.5), ("b_reps", 20.5), ("seed", 1.5),
], ids=["reps", "b_reps", "seed"])
def test_study_refuses_fractional_options_before_any_replication(monkeypatch, option, value):
    import nncorr.bootstrap as bootstrap

    def forbidden(*args, **kwargs):
        raise AssertionError("a replication ran before the options were checked")

    monkeypatch.setattr(bootstrap, "estimate", forbidden)
    with pytest.raises(InputError) as exc:
        run_study(**{"grid": [(0.5, 2, 40)], "reps": 2, option: value})
    assert str(exc.value) == f"need a whole number {option}, got {value}"


def test_study_summaries_match_raw_records():
    records = []
    grid = [(0.0, 2, 80), (0.5, 2, 80)]
    cells = run_study(grid, reps=6, b_reps=30, seed=101, records=records)
    assert isinstance(cells, tuple) and len(cells) == 2
    assert all(isinstance(cell, CellSummary) for cell in cells)
    assert len(records) == 12
    for ci, cell in enumerate(cells):
        assert (cell.rho, cell.d, cell.n, cell.reps) == (grid[ci][0], 2, 80, 6)
        rows = [rec for rec in records if rec.cell_id == ci]
        truth = true_t(grid[ci][0])
        t = np.array([rec.t_hat for rec in rows])
        bc = np.array([rec.t_bc for rec in rows])
        np.testing.assert_allclose(cell.rmse_t, np.sqrt(np.mean((t - truth) ** 2)), rtol=1e-15)
        np.testing.assert_allclose(cell.rmse_tbc, np.sqrt(np.mean((bc - truth) ** 2)), rtol=1e-15)
        np.testing.assert_allclose(cell.mean_t, t.mean(), rtol=1e-15)
        cover = np.mean([rec.ci_lo_t <= truth <= rec.ci_hi_t for rec in rows])
        assert cell.ecp_t == cover
        cover_bc = np.mean([rec.ci_lo_tbc <= truth <= rec.ci_hi_tbc for rec in rows])
        assert cell.ecp_tbc == cover_bc
        assert all(rec.true_t == truth for rec in rows)


def test_study_single_replication_degenerate_summaries():
    records = []
    cell = run_study([(0.5, 2, 60)], reps=1, b_reps=20, seed=9, records=records)[0]
    truth = true_t(0.5)
    assert cell.ecp_t in (0.0, 1.0) and cell.ecp_tbc in (0.0, 1.0)
    assert cell.rmse_t == abs(records[0].t_hat - truth)
    assert cell.mean_t == records[0].t_hat


def test_study_is_reproducible():
    grid = [(0.3, 2, 60)]
    rec_a, rec_b = [], []
    a = run_study(grid, reps=3, b_reps=20, seed=77, records=rec_a)
    b = run_study(grid, reps=3, b_reps=20, seed=77, records=rec_b)
    assert a == b
    assert rec_a == rec_b
    c = run_study(grid, reps=3, b_reps=20, seed=78)
    assert c != a


def test_study_cell_streams_depend_on_position():
    # Replication streams hang off the cell index, so the first cell of a
    # two-cell study reproduces a single-cell study of the same seed.
    grid = [(0.3, 2, 60), (0.7, 2, 60)]
    combined = run_study(grid, reps=2, b_reps=20, seed=55)
    single = run_study(grid[:1], reps=2, b_reps=20, seed=55)
    assert combined[0] == single[0]


def test_report_serialization_shape(capsys, tmp_path):
    cells = run_study([(0.0, 1, 50)], reps=2, b_reps=20, seed=1)
    keys = [
        "rho", "d", "n", "reps", "rmse_t", "rmse_tbc",
        "ecp_t", "ecp_tbc", "mean_t", "mean_tbc",
    ]
    assert list(asdict(cells[0]).keys()) == keys
    # The CLI's report.json is the level plus these summaries, field for
    # field; no wall time reaches it.
    assert main([
        "simulate", "--rho", "0.0", "--d", "1", "--n", "50", "--reps", "2",
        "--bootstrap-reps", "20", "--seed", "1", "--out-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    d = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(d.keys()) == ["alpha", "cells"]
    assert list(d["cells"][0].keys()) == keys
    assert d == {"alpha": 0.05, "cells": [asdict(c) for c in cells]}


def test_format_report_layout():
    cells = run_study([(0.0, 1, 50), (0.5, 1, 50)], reps=2, b_reps=20, seed=2)
    text = format_report(cells, 0.05)
    lines = text.strip().split("\n")
    assert len(lines) == 2 + 2 + 1  # header, rule, two cells, footer
    assert lines[0].split() == [
        "rho", "d", "n", "reps", "rmse_t", "rmse_tbc",
        "ecp_t", "ecp_tbc", "mean_t", "mean_tbc",
    ]
    # The footer is the level alone; run time is not part of the table.
    assert lines[-1] == "alpha = 0.05"
    assert format_report(cells, 0.1).strip().split("\n")[-1] == "alpha = 0.1"


def test_raw_csv_roundtrip():
    records = []
    run_study([(0.5, 2, 60)], reps=3, b_reps=20, seed=4, records=records)
    lines = raw_csv_lines(records)
    assert lines[0] == RAW_CSV_HEADER
    assert len(lines) == 1 + 3
    for rec, line in zip(records, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == rec.cell_id and int(cells[1]) == rec.rep
        # 17 significant digits survive the text roundtrip bit-for-bit.
        assert float(cells[2]) == rec.t_hat
        assert float(cells[3]) == rec.t_bc
        assert float(cells[8]) == rec.true_t
