"""End-to-end acceptance checks.

Eight numbered criteria cover the desk-scale study replication, the
closed-form truth, the oracle and property suites, root-n behavior of the
corrected estimator, and byte-level determinism of the command line. Each
test emits exactly one PASS/FAIL verdict line (written past the capture so
it always shows in the run log) and then asserts.

The full module takes a few minutes: criteria 1-3 and 7 are Monte-Carlo
studies with 200 replications each.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.stats

import conftest

from nncorr.bias_correction import PipelineConfig, _rank_coefficient, estimate
from nncorr.bootstrap import analyze
from nncorr.dataset import Sample, _tie_groups
from nncorr.nn_graph import build_nn
from nncorr.ridge_series import _block_rows, _descending, _primal_solve, design_matrix
from nncorr.rng import derive_seed
from nncorr.selftest import run_selftest
from nncorr.simulation import CopulaConfig, gen_gaussian_copula, run_study, true_t


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _verdict(num: int, ok: bool, detail: str) -> None:
    """One verdict line per criterion, echoed into the run summary."""
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stderr__, flush=True)
    conftest.VERDICTS.append(line)


def _cell(rho, d, n, reps=200, b_reps=200, seed=0):
    return run_study([(rho, d, n)], reps=reps, b_reps=b_reps, seed=seed)[0]


def _within(value, target, frac=0.30):
    return (1.0 - frac) * target <= value <= (1.0 + frac) * target


def test_criterion_1_strong_dependence_cell():
    # (rho=0.9, d=6, n=300), 200 reps, 200 bootstrap reps, fixed seed. The
    # raw coefficient is badly biased here (full-scale references: RMSE
    # 0.1128 raw vs 0.0532 corrected, raw coverage 0.57); the corrected
    # estimator must restore nominal-or-better coverage.
    c = _cell(0.9, 6, 300)
    ok = (
        _within(c.rmse_t, 0.1128)
        and _within(c.rmse_tbc, 0.0532)
        and c.ecp_t <= 0.75
        and 0.90 <= c.ecp_tbc <= 1.0
    )
    _verdict(
        1, ok,
        f"rmse_t={c.rmse_t:.4f} (0.1128 +-30%), rmse_tbc={c.rmse_tbc:.4f} "
        f"(0.0532 +-30%), ecp_t={c.ecp_t:.3f} (<=0.75), ecp_tbc={c.ecp_tbc:.3f} "
        f"(in [0.90, 1.00])",
    )
    assert ok


def test_criterion_2_independence_cell():
    # (rho=0, d=6, n=300): under independence both estimators are nearly
    # unbiased, so both intervals should cover at the nominal level.
    c = _cell(0.0, 6, 300)
    ok = (
        _within(c.rmse_t, 0.0627)
        and _within(c.rmse_tbc, 0.0635)
        and c.ecp_t >= 0.90
        and c.ecp_tbc >= 0.90
    )
    _verdict(
        2, ok,
        f"rmse_t={c.rmse_t:.4f} (0.0627 +-30%), rmse_tbc={c.rmse_tbc:.4f} "
        f"(0.0635 +-30%), ecp_t={c.ecp_t:.3f}, ecp_tbc={c.ecp_tbc:.3f} (both >=0.90)",
    )
    assert ok


def test_criterion_3_bias_domination_cell():
    # (rho=0.9, d=8, n=600): with more covariates and a larger sample the
    # raw estimator's bias dominates its spread; correction must cut RMSE
    # at least in half and shrink the absolute bias.
    c = _cell(0.9, 8, 600)
    truth = true_t(0.9)
    bias_t = abs(c.mean_t - truth)
    bias_bc = abs(c.mean_tbc - truth)
    ok = (c.rmse_tbc < 0.5 * c.rmse_t) and (bias_bc < bias_t)
    _verdict(
        3, ok,
        f"rmse_tbc={c.rmse_tbc:.4f} < 0.5*rmse_t={0.5 * c.rmse_t:.4f}; "
        f"|bias_tbc|={bias_bc:.4f} < |bias_t|={bias_t:.4f}",
    )
    assert ok


def test_criterion_4_closed_form_truth():
    # Endpoints must be exact; the interior value is checked against an
    # independently computed high-precision constant.
    ref_half = 0.144703124224824
    exact = true_t(0.0) == 0.0 and true_t(1.0) == 1.0
    interior = abs(true_t(0.5) - ref_half) <= 1e-10
    ok = exact and interior
    _verdict(
        4, ok,
        f"true_t(0)={true_t(0.0)}, true_t(1)={true_t(1.0)}, "
        f"|true_t(0.5)-{ref_half}|={abs(true_t(0.5) - ref_half):.2e} (<=1e-10)",
    )
    assert ok


def test_criterion_5_oracle_suites():
    # The built-in suites pit production routines against independent
    # references: 100 neighbor-graph instances (n <= 512, d <= 12), 50
    # pairwise-sum instances at 1e-12, ridge residuals <= 1e-8 over a
    # penalty grid on 20 instances. Budget: 60 s.
    lines = []
    start = time.perf_counter()
    passed = run_selftest(quick=False, out=lines.append)
    elapsed = time.perf_counter() - start
    ok = passed and elapsed <= 60.0
    _verdict(5, ok, f"all suites passed={passed}, runtime={elapsed:.1f}s (<=60s)")
    assert ok, "\n".join(str(ln) for ln in lines)


def _t_raw(y, nn):
    # The pipeline's rank stages on a stack of one sample.
    return _rank_coefficient(_tie_groups(y[None])[2], nn[None])[0]


def _ridge_fit(p, y, lam):
    # The pipeline's right-hand sides and ridge solve for one sample.
    order, first, _ = _tie_groups(y[None])
    desc, _ = _descending(order, first)
    betas = np.empty(p.shape[::-1])
    # The neighbors enter only the cross sum, which is not read here.
    _, blocks = _primal_solve(
        p[None], None, order, first, np.zeros_like(first), lam, _block_rows(p.shape[1])
    )
    for lo, hi, *_, cols in blocks:
        betas[:, desc[0, lo:hi]] = cols[0]
    return betas


def test_criterion_6_property_suite():
    rng = np.random.default_rng(600)
    checks = {}

    # (a) Exact invariance of the raw coefficient under strictly increasing
    # transforms of the response.
    ok_mono = True
    for _ in range(5):
        x = rng.standard_normal((120, 3))
        y = rng.standard_normal(120)
        g = build_nn(x)
        base = _t_raw(y, g)
        for f in (np.exp, lambda v: v**3, lambda v: 2.0 * v - 5.0):
            ok_mono &= _t_raw(f(y), g) == base
    checks["monotone-y"] = ok_mono

    # (b) Exact invariance under orthogonal transforms of the covariates
    # (distances are preserved, so the neighbor graph cannot move when all
    # pairwise distances are distinct).
    ok_orth = True
    for _ in range(5):
        x = rng.standard_normal((150, 3))
        y = rng.standard_normal(150)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        t_raw = _t_raw(y, build_nn(x))
        t_rot = _t_raw(y, build_nn(x @ q))
        ok_orth &= t_rot == t_raw
    checks["orthogonal-x"] = ok_orth

    # (c) Degree-0 identity: a constant-only basis makes the correction a
    # no-op, exactly.
    ok_deg0 = True
    for seed in (1, 2, 3):
        r = np.random.default_rng(seed)
        s = Sample(x=r.uniform(size=(80, 4)), y=r.standard_normal(80))
        res = estimate(s, PipelineConfig(degree=0))
        ok_deg0 &= res.t_bc == res.t_hat and res.l_hat == 0.0
    checks["degree-0"] = ok_deg0

    # (d) Ridge shrinkage: every threshold's coefficient norm is
    # nonincreasing in the penalty.
    x = rng.uniform(size=(60, 3))
    y = rng.standard_normal(60)
    p = design_matrix(x, 2)
    norms = [
        np.linalg.norm(_ridge_fit(p, y, lam), axis=0)
        for lam in (1e-4, 1e-2, 1.0, 100.0)
    ]
    checks["shrinkage"] = all(
        np.all(a >= b - 1e-10) for a, b in zip(norms, norms[1:])
    )

    # (e) Permuting sample rows permutes the fitted survival matrix's rows
    # and columns correspondingly.
    n = 40
    x = rng.uniform(size=(n, 2))
    y = rng.standard_normal(n)
    p = design_matrix(x, 2)
    g = p @ _ridge_fit(p, y, 0.05)
    perm = rng.permutation(n)
    pp = design_matrix(x[perm], 2)
    gp = pp @ _ridge_fit(pp, y[perm], 0.05)
    checks["permutation"] = bool(np.allclose(gp, g[np.ix_(perm, perm)], atol=1e-9))

    ok = all(checks.values())
    _verdict(6, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, checks


def test_criterion_7_root_n_behavior():
    cfg = PipelineConfig()

    # (a) Quadrupling n should roughly halve the sd of the corrected
    # estimator: the ratio must land in [0.35, 0.65] over 200 reps per size.
    sds = {}
    for n in (300, 1200):
        vals = np.empty(200)
        for r in range(200):
            s = gen_gaussian_copula(
                CopulaConfig(n=n, d=6, rho=0.5, seed=derive_seed(7, n, r))
            )
            vals[r] = estimate(s, cfg).t_bc
        sds[n] = float(np.std(vals, ddof=1))
    ratio = sds[1200] / sds[300]
    ok_ratio = 0.35 <= ratio <= 0.65

    # (b) Standardized errors (t_bc - T)/se against N(0, 1): at least 8 of
    # 10 seeded 200-rep batches must clear a KS test at the 0.01 level.
    truth = true_t(0.5)
    passes = 0
    for batch in range(10):
        z = np.empty(200)
        for r in range(200):
            data_seed = derive_seed(500 + batch, r, 0)
            boot_seed = derive_seed(500 + batch, r, 1)
            s = gen_gaussian_copula(CopulaConfig(n=300, d=6, rho=0.5, seed=data_seed))
            a = analyze(s, cfg, b_reps=200, seed=boot_seed)
            z[r] = (a.t_bc - truth) / a.se_tbc
        pval = scipy.stats.kstest(z, "norm").pvalue
        passes += int(pval > 0.01)
    ok_ks = passes >= 8

    ok = ok_ratio and ok_ks
    _verdict(
        7, ok,
        f"sd(n=1200)/sd(n=300)={ratio:.3f} (in [0.35, 0.65]); "
        f"KS batches passed={passes}/10 (>=8)",
    )
    assert ok


def test_criterion_8_cli_byte_determinism(tmp_path):
    # Identical seed and flags must give byte-identical machine outputs at
    # thread counts 1, 4, and max, for both CLI commands. estimate runs at
    # n = 2 000, and simulate has an n = 2 000 cell next to its n = 300 one,
    # where the full sample's kd-tree search takes up to two workers (one
    # per nn_graph._ROWS_PER_WORKER rows), as --threads allows.
    rng = np.random.default_rng(800)
    n = 2000
    x = rng.uniform(size=(n, 3))
    y = x[:, 0] + 0.4 * rng.standard_normal(n)
    csv_path = tmp_path / "data.csv"
    rows = [",".join(format(v, ".12g") for v in row) for row in np.column_stack([x, y])]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    thread_counts = ["1", "4", str(os.cpu_count() or 1)]
    # Run the tree's own command line, whatever the working directory and
    # whatever copy of nncorr may be installed.
    cli = [sys.executable, "-m", "nncorr"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )

    est_outputs = []
    for k, t in enumerate(thread_counts):
        out = tmp_path / f"est{k}.json"
        proc = subprocess.run(
            cli + ["estimate", "--input", str(csv_path), "--seed", "5",
                   "--bootstrap-reps", "50", "--threads", t, "--output", str(out)],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        est_outputs.append(out.read_bytes())
    ok_est = est_outputs[0] == est_outputs[1] == est_outputs[2]

    sim_json, sim_csv = [], []
    for k, t in enumerate(thread_counts):
        out_dir = tmp_path / f"sim{k}"
        proc = subprocess.run(
            cli + ["simulate", "--rho", "0.0", "--rho", "0.5", "--d", "2",
                   "--n", "300", "--n", "2000", "--reps", "2", "--bootstrap-reps", "20", "--seed", "9",
                   "--threads", t, "--out-dir", str(out_dir)],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        sim_json.append((out_dir / "report.json").read_bytes())
        sim_csv.append((out_dir / "raw.csv").read_bytes())
    ok_sim = (
        sim_json[0] == sim_json[1] == sim_json[2]
        and sim_csv[0] == sim_csv[1] == sim_csv[2]
    )

    # Self-check of the comparison: the estimate JSON is valid and complete.
    payload = json.loads(est_outputs[0])
    ok_shape = payload["n"] == n and math.isfinite(payload["t_bc"])

    ok = ok_est and ok_sim and ok_shape
    _verdict(
        8, ok,
        f"estimate JSON identical across threads {thread_counts}: {ok_est}; "
        f"simulate report.json+raw.csv identical: {ok_sim}",
    )
    assert ok
