"""Tests for the command-line interface: contracts, exit codes, byte stability."""

import importlib.metadata
import importlib.util
import json
import os
import re
import shutil
import site
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nncorr import _threads, nn_graph
from nncorr.bias_correction import PipelineConfig, estimate
from nncorr.bootstrap import analyze
from nncorr.cli import RAW_CSV_HEADER, main
from nncorr.dataset import Sample
from nncorr.errors import InputError

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _reset_workers():
    # --threads mutates module state; keep invocations independent.
    yield
    _threads.set_workers(None)


def _write_csv(tmp_path, n):
    rng = np.random.default_rng(71)
    x = rng.uniform(size=(n, 3))
    y = x[:, 0] + 0.4 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    header = "x1,x2,x3,y"
    rows = [",".join(format(v, ".12g") for v in row) for row in np.column_stack([x, y])]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def csv_file(tmp_path):
    return _write_csv(tmp_path, 100)


@pytest.fixture()
def tree_csv_file(tmp_path):
    # Two nn_graph._ROWS_PER_WORKER blocks of rows, so estimate's search
    # runs the kd-tree on up to two of its --threads workers.
    return _write_csv(tmp_path, 2000)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_stdout_payload(capsys, csv_file):
    code, out, err = _run(capsys, [
        "estimate", "--input", str(csv_file), "--bootstrap-reps", "50", "--seed", "3",
    ])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "n", "d", "t_hat", "l_hat", "t_bc", "se_t", "se_tbc",
        "ci_t", "ci_tbc", "config",
    ]
    assert payload["n"] == 100 and payload["d"] == 3
    assert payload["t_bc"] == payload["t_hat"] - 6.0 * payload["l_hat"]
    assert len(payload["ci_t"]) == 2 and payload["ci_t"][0] <= payload["ci_t"][1]
    cfg = payload["config"]
    assert list(cfg.keys()) == [
        "degree", "lambda_exponent", "scale_covariates", "m",
        "bootstrap_reps", "alpha", "seed",
    ]
    assert cfg["degree"] == 2 and cfg["m"] == 10
    assert cfg["bootstrap_reps"] == 50 and cfg["seed"] == 3
    assert cfg["scale_covariates"] is True


def test_estimate_output_file_matches_stdout(capsys, csv_file, tmp_path):
    args = ["estimate", "--input", str(csv_file), "--bootstrap-reps", "30"]
    code, out, _ = _run(capsys, args)
    assert code == 0
    dest = tmp_path / "result.json"
    code2, out2, _ = _run(capsys, args + ["--output", str(dest)])
    assert code2 == 0 and out2 == ""
    assert dest.read_text(encoding="utf-8") == out


def test_estimate_byte_identical_across_thread_counts(capsys, tree_csv_file):
    base = ["estimate", "--input", str(tree_csv_file), "--bootstrap-reps", "30"]
    outs = []
    for workers in ("1", "4"):
        code, out, _ = _run(capsys, base + ["--threads", workers])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_tree_csv_file_reaches_two_workers(capsys, tree_csv_file, monkeypatch):
    seen = []

    class Spy(nn_graph.cKDTree):
        def query(self, *args, workers=1, **kwargs):
            seen.append(workers)
            return super().query(*args, workers=workers, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(nn_graph, "cKDTree", Spy)
    code, _, _ = _run(capsys, [
        "estimate", "--input", str(tree_csv_file), "--bootstrap-reps", "2", "--threads", "4",
    ])
    assert code == 0 and seen == [2]


@pytest.mark.parametrize("reps", ["30", "1"], ids=["success", "input-error"])
def test_threads_option_does_not_outlive_the_call(capsys, tree_csv_file, monkeypatch, reps):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    _threads.set_workers(3)
    seen = []
    real = _threads.get_workers

    def spy():
        seen.append(real())
        return seen[-1]

    monkeypatch.setattr(_threads, "get_workers", spy)
    code, _, _ = _run(capsys, [
        "estimate", "--input", str(tree_csv_file), "--bootstrap-reps", reps, "--threads", "1",
    ])
    assert code == (0 if reps == "30" else 2)
    assert set(seen) == ({1} if reps == "30" else set())
    assert real() == 3


def test_estimate_byte_identical_across_blas_thread_counts(tmp_path):
    # nncorr leaves NumPy's BLAS at the thread count its environment sets,
    # so the bits must not depend on it. The count is read once, at import,
    # so each run is a fresh interpreter; the last run leaves
    # OPENBLAS_NUM_THREADS unset, so OpenBLAS starts its default pool, one
    # thread per core. At n = 3 000 (K = 28) the estimate's Gram and ridge
    # products are large enough for OpenBLAS to split over its threads, and
    # the m = 54 replicates take the primal ridge system too.
    rng = np.random.default_rng(72)
    n = 3000
    x = rng.uniform(size=(n, 6))
    y = x[:, 0] + 0.4 * rng.standard_normal(n)
    csv_path = tmp_path / "big.csv"
    rows = [",".join(format(v, ".12g") for v in row) for row in np.column_stack([x, y])]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    outputs = []
    for threads in ("1", "4", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"est{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nncorr", "estimate", "--input", str(csv_path),
             "--bootstrap-reps", "20", "--seed", "4", "--output", str(out)],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_estimate_degree_zero_is_uncorrected(capsys, csv_file):
    code, out, _ = _run(capsys, [
        "estimate", "--input", str(csv_file), "--degree", "0",
        "--bootstrap-reps", "20",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["l_hat"] == 0.0
    assert payload["t_bc"] == payload["t_hat"]


def test_estimate_no_scale_flag_is_echoed(capsys, csv_file):
    code, out, _ = _run(capsys, [
        "estimate", "--input", str(csv_file), "--no-scale", "--bootstrap-reps", "20",
    ])
    assert code == 0
    assert json.loads(out)["config"]["scale_covariates"] is False


def test_estimate_y_column_reordered_file(capsys, csv_file, tmp_path):
    # Moving the response to column 0 and saying so gives the same numbers.
    code, out, _ = _run(capsys, [
        "estimate", "--input", str(csv_file), "--bootstrap-reps", "20",
    ])
    assert code == 0
    lines = csv_file.read_text(encoding="utf-8").strip().split("\n")
    moved = tmp_path / "moved.csv"
    rows = [ln.split(",") for ln in lines]
    moved.write_text(
        "\n".join(",".join([row[3], row[0], row[1], row[2]]) for row in rows) + "\n",
        encoding="utf-8",
    )
    code2, out2, _ = _run(capsys, [
        "estimate", "--input", str(moved), "--y-column", "0", "--bootstrap-reps", "20",
    ])
    assert code2 == 0
    assert out2 == out


def test_estimate_usage_errors(capsys, csv_file):
    cases = [
        ["estimate"],                                            # missing --input
        ["estimate", "--input", str(csv_file), "--wat"],         # unknown flag
        ["wat"],                                                 # unknown subcommand
        [],                                                      # no subcommand
        ["estimate", "--input", str(csv_file), "--y-column", "mid"],
        ["estimate", "--input", str(csv_file), "--m", "1"],
        ["estimate", "--input", str(csv_file), "--alpha", "1.5"],
        ["estimate", "--input", str(csv_file), "--degree", "-2"],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert err.count("\n") == 1 and err.startswith("nncorr: error:"), argv


def test_estimate_options_are_checked_before_the_estimate(capsys, csv_file, monkeypatch):
    import nncorr.bootstrap as bootstrap

    def forbidden(*args, **kwargs):
        raise AssertionError("the estimate ran before the options were checked")

    monkeypatch.setattr(bootstrap, "estimate", forbidden)
    monkeypatch.setattr(bootstrap, "_integers_block", forbidden)
    cases = [
        (["--alpha", "1.5"], "alpha must lie strictly between 0 and 1, got 1.5"),
        (["--bootstrap-reps", "1"], "need b_reps >= 2, got 1"),
        (["--m", "1"], "need subsample size m >= 2, got 1"),
        (["--m", "101"], "subsample size 101 exceeds sample size 100"),
        (["--seed", "-1"], "seed path entries must be non-negative, got -1"),
        (["--degree", "40"],
         "basis would have 12341 functions, above the cap of 10000; lower the degree"),
    ] + [
        (["--lambda-exponent", text],
         f"penalty exponent {value} makes the ridge penalty n**-{value} underflow to 0 "
         "at n = 100; use a smaller exponent")
        for text, value in (("200", "200.0"), ("inf", "inf"), ("1e308", "1e+308"))
    ]
    for extra, message in cases:
        code, out, err = _run(capsys, ["estimate", "--input", str(csv_file)] + extra)
        assert code == 2 and out == "", extra
        assert err == f"nncorr: error: {message}\n"


def test_estimate_cli_agrees_with_the_api(tmp_path):
    # A file written with 17 significant digits loads back bit for bit, and
    # the CLI prints the estimates of estimate() on the same sample exactly.
    from nncorr import CopulaConfig, estimate, gen_gaussian_copula, load_csv

    sample = gen_gaussian_copula(CopulaConfig(n=3000, d=6, rho=0.9, seed=5))
    path = tmp_path / "copula.csv"
    np.savetxt(path, np.column_stack([sample.x, sample.y]), fmt="%.17g", delimiter=",")
    loaded = load_csv(path)
    assert loaded.x.tobytes() == sample.x.tobytes()
    assert loaded.y.tobytes() == sample.y.tobytes()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "nncorr", "estimate", "--input", str(path),
         "--bootstrap-reps", "2"],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    res = estimate(sample)
    assert (payload["t_hat"], payload["l_hat"], payload["t_bc"]) == (res.t_hat, res.l_hat, res.t_bc)


def test_estimate_missing_file(capsys, tmp_path):
    # A missing file and a directory: one line with the system's reason and the path.
    for path in (tmp_path / "nope.csv", tmp_path):
        code, out, err = _run(capsys, ["estimate", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("nncorr: error: [Errno ")
        assert err.endswith(f": {str(path)!r}\n") and err.count("\n") == 1


def test_estimate_rejects_a_first_row_with_a_typo(capsys, tmp_path):
    # A mixed first row is data with a bad cell, not a header to drop.
    path = tmp_path / "typo.csv"
    path.write_text("1,2x,3\n4,5,6\n7,8,9\n10,11,12\n", encoding="utf-8")
    code, out, err = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("nncorr: error: non-numeric cell at (0,1): '2x'")


@pytest.mark.parametrize("raw, byte, offset", [
    ("x\xe9,y\n1,2\n3,4\n4,7\n".encode("latin-1"), 0xE9, 1),
    ("x,y\n1,2\n3,4\n4,7\n".encode("utf-16"), 0xFF, 0),
])
def test_estimate_rejects_a_file_that_is_not_utf8(capsys, tmp_path, raw, byte, offset):
    # A Latin-1 header or a UTF-16 export is an input error, not an internal one.
    path = tmp_path / "enc.csv"
    path.write_bytes(raw)
    code, out, err = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"nncorr: error: {path} is not UTF-8 text: byte 0x{byte:02x} "
                          f"at offset {offset} (")


def test_estimate_rejects_overflowing_distances(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    rows = [f"{i}e200,{i}" for i in range(5)]
    path.write_text("x1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["estimate", "--input", str(path), "--degree", "0",
                                   "--no-scale"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "overflow" in err


def test_estimate_rejects_an_overflowing_gram_matrix(capsys, tmp_path):
    # x = k * 1e100 is within the distance range, but the degree-2 Gram
    # entries overflow: an input error naming the cure, not a crash.
    path = tmp_path / "huge.csv"
    rows = [f"{k}e100,{(7 * k) % 20}" for k in range(1, 21)]
    path.write_text("x1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["estimate", "--input", str(path), "--no-scale"])
    assert code == 2 and out == "" and caught == []
    assert "internal error" not in err and "Gram matrix overflows" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("n,big", [(50, "1e20"), (100, "1e20"), (300, "1e30")])
def test_estimate_rejects_a_singular_ridge_matrix(capsys, tmp_path, n, big):
    # Two unscaled constant columns of 1e20: the Gram entries stay finite,
    # but the ridge shift vanishes beside them and the matrix is singular.
    y = np.random.default_rng(n).uniform(size=n).tolist()
    path = tmp_path / "const.csv"
    path.write_text("".join(f"{big},{big},{v!r}\n" for v in y), encoding="utf-8")
    code, out, err = _run(capsys, ["estimate", "--input", str(path), "--no-scale"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("nncorr: error: ")
    assert "could not be inverted" in err and "rescale x or lower the degree" in err


def test_estimate_rejects_a_constant_response(capsys, tmp_path):
    # A constant y, and an n = 2 file whose m = 2 replicates draw one row
    # twice half the time: input errors, not an out-of-range crash. The
    # replicate's error names the replicate, so its "2 rows" are not read as
    # the file's.
    flat = "x1,x2,y\n" + "".join(f"{0.1 * i},{(3 * i) % 7},2.5\n" for i in range(30))
    n2 = "x1,y\n0.0,1.0\n1.0,2.0\n"
    cases = [(flat, [], "", 30), (n2, ["--m", "2"], "bootstrap replicate 0 of 200 (m = 2): ", 2)]
    for text, extra, where, m in cases:
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, ["estimate", "--input", str(path)] + extra)
        assert code == 2 and out == "", extra
        assert err == (
            f"nncorr: error: {where}the response is constant over all {m} rows; "
            "there is nothing to rank\n"
        )


def test_estimate_rejects_a_tied_response(capsys, tmp_path):
    # A binary y (n = 200, d = 3) puts the raw coefficient outside its sane
    # range; so does a bootstrap replicate of seed 2 on an n = 30 copula
    # sample, which draws one row several times. Ties are a property of the
    # data: exit 2 with one line, not an internal error.
    from nncorr import CopulaConfig, gen_gaussian_copula

    rng = np.random.default_rng(1)
    binary = np.column_stack([rng.uniform(size=(200, 3)), rng.uniform(size=200) < 0.5])
    copula = gen_gaussian_copula(CopulaConfig(n=30, d=6, rho=0.9, seed=1))
    cases = [(binary, [], ""),
             (np.column_stack([copula.x, copula.y]), ["--seed", "2"],
              "bootstrap replicate 20 of 200 (m = 5): ")]
    for data, extra, where in cases:
        path = tmp_path / "tied.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        code, out, err = _run(capsys, ["estimate", "--input", str(path)] + extra)
        assert (code, out) == (2, ""), extra
        assert err.count("\n") == 1 and err.startswith(f"nncorr: error: {where}coefficient ")
        assert "outside sane range; the response is too heavily tied" in err


def test_estimate_rejects_an_unwritable_output_before_the_work(capsys, csv_file, monkeypatch):
    import nncorr.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the input was read before the destination was checked")

    monkeypatch.setattr(cli, "load_csv", forbidden)
    root = csv_file.parent
    before = sorted(root.rglob("*"))
    missing = root / "no" / "such" / "out.json"
    cases = [
        (missing, f"--output {missing}: {missing.parent} is not an existing directory"),
        (csv_file / "out.json", f"--output {csv_file / 'out.json'}: {csv_file} "
         "is not an existing directory"),
        (root, f"--output {root} is a directory"),
    ]
    for target, message in cases:
        code, out, err = _run(capsys, ["estimate", "--input", str(csv_file),
                                       "--output", str(target)])
        assert (code, out) == (2, ""), target
        assert err == f"nncorr: error: {message}\n"
    assert sorted(root.rglob("*")) == before


def test_an_unreadable_input_or_a_failed_write_is_an_input_error(capsys, csv_file, tmp_path,
                                                                  monkeypatch):
    # A directory given as --input, or a destination that passed the check
    # but refuses the bytes (a full disk, permissions): exit 2 with the
    # system's reason, not an internal error.
    code, out, err = _run(capsys, ["estimate", "--input", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("nncorr: error: [Errno ") and err.count("\n") == 1
    assert str(tmp_path) in err

    def full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    runs = [
        ["estimate", "--input", str(csv_file), "--bootstrap-reps", "2",
         "--output", str(tmp_path / "out.json")],
        ["simulate", "--rho", "0.5", "--d", "1", "--n", "20", "--reps", "1",
         "--bootstrap-reps", "2", "--out-dir", str(tmp_path / "study")],
    ]
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv[0]
        assert err == "nncorr: error: [Errno 28] No space left on device\n"


# ---------------------------------------------------------------------------
# overflow checks, made once in the pipeline and only on unscaled covariates


def _write_rows(path, x, y):
    rows = [",".join(repr(float(v)) for v in (*xi, yi)) for xi, yi in zip(x, y)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("x,degree,message", [
    # Rows 1e200 apart: their squared distances overflow.
    ([[0.0], [1e200], [2e200]], 2,
     "covariate ranges are too large: squared distances overflow; rescale x"),
    # Distances near 1e240 are finite, but the cubes in the design matrix are not.
    ([[1e120], [2e120], [3e120], [4e120]], 3, "design matrix contains NaN or infinite entries"),
    # Squares near 1e206 are finite, cubes near 1e309 are not (K = 4 <= n: the primal path).
    ([[1e103], [2e103], [3e103], [4e103]], 3, "design matrix contains NaN or infinite entries"),
    # x1 * x2 = 1 is finite, x1^2 = 1e400 is not (K = 6 > n: the dual path).
    ([[1e200, 1e-200], [1e200, 2e-200], [1e200, 3e-200], [1e200, 4e-200]], 2,
     "design matrix contains NaN or infinite entries"),
], ids=["distances", "design-matrix", "cube-overflows", "square-overflows"])
def test_unscaled_overflow_is_an_input_error_everywhere(capsys, tmp_path, x, degree, message):
    x = np.array(x)
    y = np.arange(float(len(x)))
    sample = Sample(x=x, y=y)
    config = PipelineConfig(degree=degree, scale_covariates=False)
    path = tmp_path / "huge.csv"
    _write_rows(path, x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            estimate(sample, config)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            analyze(sample, config, m=2)
        code, out, err = _run(capsys, ["estimate", "--input", str(path), "--no-scale",
                                       "--degree", str(degree), "--m", "2"])
    assert (code, out, err) == (2, "", f"nncorr: error: {message}\n")


def test_scaled_covariates_beyond_the_float_range_stay_finite(capsys, tmp_path):
    # A column from about -1e308 to 1e308: its range overflows, so min-max
    # scaling halves it first; the scaled run then needs no overflow check.
    rng = np.random.default_rng(73)
    n = 60
    x = np.column_stack([rng.uniform(-1.0, 1.0, n) * 1e308, rng.uniform(size=n)])
    with np.errstate(over="ignore"):
        assert np.isinf(np.ptp(x[:, 0]))
    y = x[:, 0] / 1e308 + 0.3 * rng.standard_normal(n)
    path = tmp_path / "wide.csv"
    _write_rows(path, x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = analyze(Sample(x=x, y=y), b_reps=20, seed=1)
        code, out, _ = _run(capsys, ["estimate", "--input", str(path), "--bootstrap-reps", "20",
                                     "--seed", "1"])
    values = (res.t_hat, res.l_hat, res.t_bc, res.se_t, res.se_tbc)
    assert all(np.isfinite(values)) and res.t_hat > 0.0
    assert code == 0
    payload = json.loads(out)
    assert [payload[k] for k in ("t_hat", "l_hat", "t_bc", "se_t", "se_tbc")] == list(values)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "study"
    code, out, err = _run(capsys, [
        "simulate", "--rho", "0.0", "--rho", "0.5", "--d", "2", "--n", "60",
        "--reps", "2", "--bootstrap-reps", "20", "--out-dir", str(out_dir),
    ])
    assert code == 0
    # The run time is the one line on stderr; no output file holds it.
    assert re.fullmatch(r"wall time = \d+\.\d\d s\n", err)
    report_json = out_dir / "report.json"
    report_txt = out_dir / "report.txt"
    raw_csv = out_dir / "raw.csv"
    assert report_json.exists() and report_txt.exists() and raw_csv.exists()
    # Console output is exactly the text table.
    assert out == report_txt.read_text(encoding="utf-8")
    payload = json.loads(report_json.read_text(encoding="utf-8"))
    assert payload["alpha"] == 0.05
    assert len(payload["cells"]) == 2
    assert {c["rho"] for c in payload["cells"]} == {0.0, 0.5}
    csv_lines = raw_csv.read_text(encoding="utf-8").strip().split("\n")
    assert csv_lines[0] == RAW_CSV_HEADER
    assert len(csv_lines) == 1 + 2 * 2


def test_simulate_machine_outputs_are_byte_stable(capsys, tmp_path):
    args = [
        "simulate", "--rho", "0.3", "--d", "2", "--n", "50",
        "--reps", "2", "--bootstrap-reps", "20",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a, out_a, _ = _run(capsys, args + ["--out-dir", str(dir_a), "--threads", "1"])
    code_b, out_b, _ = _run(capsys, args + ["--out-dir", str(dir_b), "--threads", "4"])
    assert code_a == code_b == 0
    for name in ("report.json", "report.txt", "raw.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    assert out_a == out_b


def test_simulate_rejects_bad_grid(capsys, tmp_path):
    code, _, err = _run(capsys, [
        "simulate", "--rho", "1.5", "--d", "2", "--n", "50", "--reps", "2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2 and "rho" in err
    code2, _, err2 = _run(capsys, [
        "simulate", "--rho", "0.5", "--d", "2", "--n", "50", "--reps", "0",
        "--out-dir", str(tmp_path),
    ])
    assert code2 == 2 and "reps" in err2


@pytest.mark.parametrize("options, message", [
    (["--n", "50", "--bootstrap-reps", "1"], "need b_reps >= 2, got 1"),
    (["--n", "3"], "need subsample size m >= 2, got 1"),
    (["--n", "50", "--d", "200", "--bootstrap-reps", "2"],
     "basis would have 20301 functions, above the cap of 10000; lower the degree"),
    (["--n", "20", "--d", "1", "--bootstrap-reps", "2", "--seed", "-1"],
     "seed path entries must be non-negative, got -1"),
    (["--n", "50", "--threads", "-1"],
     "thread count must be >= 0 (0 means all cores), got -1"),
], ids=["b_reps", "m", "basis", "seed", "threads"])
def test_simulate_option_errors_are_input_errors(capsys, tmp_path, options, message):
    # Checked before any replication runs, so they exit 2 with the message
    # of the check, not as a failed replication.
    code, out, err = _run(capsys, [
        "simulate", "--rho", "0.5", "--reps", "1", *options, "--out-dir", str(tmp_path),
    ])
    assert (code, out) == (2, "")
    assert err == f"nncorr: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_an_out_dir_that_is_a_file_before_the_work(capsys, tmp_path,
                                                                    monkeypatch):
    import nncorr.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the study ran before the destination was checked")

    monkeypatch.setattr(cli, "run_study", forbidden)
    path = tmp_path / "taken"
    path.write_text("keep me\n", encoding="utf-8")
    for target in (path, path / "study"):
        code, out, err = _run(capsys, ["simulate", "--reps", "1", "--out-dir", str(target)])
        assert (code, out) == (2, ""), target
        assert err == f"nncorr: error: --out-dir {target}: {path} is not an existing directory\n"
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "keep me\n"


def test_simulate_data_error_in_a_replication_is_an_input_error(capsys, tmp_path):
    # At n = 4 the subsample size is 2, so some bootstrap subsample draws one
    # row twice and has a constant response: a property of the drawn data,
    # reported with the cell coordinates and exit 2.
    code, out, err = _run(capsys, [
        "simulate", "--rho", "0.5", "--d", "1", "--n", "4", "--reps", "3",
        "--bootstrap-reps", "50", "--out-dir", str(tmp_path / "out"),
    ])
    assert (code, out) == (2, "")
    assert err == (
        "nncorr: error: replication 0 of cell (rho=0.5, d=1, n=4) failed: "
        "bootstrap replicate 0 of 50 (m = 2): "
        "the response is constant over all 2 rows; there is nothing to rank\n"
    )
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# selftest


def test_selftest_quick_passes(capsys):
    code, out, _ = _run(capsys, ["selftest", "--quick"])
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)


def test_selftest_detects_a_broken_neighbor_search(capsys, monkeypatch):
    # Sabotage the production routine as the suites see it; the oracle
    # comparison must notice and flip the exit code.
    import nncorr.selftest as st

    real = st.build_nn

    def crooked(x):
        nn = real(x)
        nn[0], nn[1] = nn[1], nn[0]
        return nn

    monkeypatch.setattr(st, "build_nn", crooked)
    code, out, _ = _run(capsys, ["selftest", "--quick"])
    assert code == 1
    assert "FAIL" in out


def _wheel_build_gap():
    """Name what keeps setuptools from building a wheel offline, or None.

    setuptools ships its own ``bdist_wheel`` from 70.1 on; older releases
    borrow it from the ``wheel`` package.
    """
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return "setuptools is not installed"
    if tuple(int(p) for p in re.findall(r"\d+", version)[:2]) >= (70, 1):
        return None
    if importlib.util.find_spec("wheel") is not None:
        return None
    return f"setuptools {version} < 70.1 and the wheel package is not installed"


_WHEEL_BUILD_GAP = _wheel_build_gap()


@pytest.mark.skipif(
    _WHEEL_BUILD_GAP is not None,
    reason=f"cannot build a wheel offline: {_WHEEL_BUILD_GAP}",
)
def test_console_script_is_installed(csv_file, tmp_path):
    # Install a copy of the tree into a fresh venv and run the script that
    # install wrote. The build happens in the copy, so it leaves no build/
    # or egg-info behind in the checkout.
    tree = tmp_path / "tree"
    shutil.copytree(REPO_ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(REPO_ROOT / "pyproject.toml", tree / "pyproject.toml")

    # Without its own pip the venv builds with this interpreter's pip,
    # setuptools and wheel: the ones the skip condition looked at. The .pth
    # file also exposes this interpreter's site-packages (numpy, scipy) when
    # it is itself a venv, whose packages --system-site-packages misses.
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True, timeout=300,
    )
    venv_python = venv / "bin" / "python"
    purelib = subprocess.run(
        [str(venv_python), "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    parent_sites = site.getsitepackages()
    if site.ENABLE_USER_SITE:
        parent_sites.append(site.getusersitepackages())
    Path(purelib, "_parent_site.pth").write_text("\n".join(parent_sites) + "\n")

    # Without PYTHONPATH, nothing but the installed copy can provide nncorr.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [str(venv_python), "-m", "pip", "install", "--no-build-isolation",
         "--no-deps", "--no-index", str(tree)],
        capture_output=True, text=True, timeout=600, env=env, cwd=tmp_path,
    )
    assert install.returncode == 0, install.stdout + install.stderr

    exe = venv / "bin" / "nncorr"
    assert exe.is_file()
    proc = subprocess.run(
        [str(exe), "estimate", "--input", str(csv_file), "--bootstrap-reps", "20"],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["n"] == 100
