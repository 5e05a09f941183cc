"""Built-in oracle-equivalence suites, runnable from the command line.

Each suite pits a production routine against an independent reference
implementation kept in this module (deliberately not shared with the
production code, so a defect introduced there cannot silently cancel out
here). Intended as a release gate: everything must pass on a fresh build.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bias_correction import bias_estimate, default_lambda
from .nn_graph import NnGraph, build_nn
from .ridge_series import basis_index_set, design_matrix, ridge_fit_all
from .rng import derive_rng
from .simulation import true_t

# Reference values of the closed-form truth, precomputed once with 50-digit
# arithmetic and rounded to double precision.
_TRUTH_REFERENCE = {
    0.0: 0.0,
    0.3: 0.05041106052776434,
    0.5: 0.144703124224824,
    0.7: 0.3026516488101797,
    0.9: 0.5803880509898379,
    1.0: 1.0,
}


def _ref_nn(x: np.ndarray) -> np.ndarray:
    # Index-by-index double loop over squared distances; first strict
    # improvement wins, so ties resolve to the smallest index.
    n, d = x.shape
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        best_j = -1
        best = math.inf
        for j in range(n):
            if j == i:
                continue
            acc = 0.0
            for k in range(d):
                diff = x[i, k] - x[j, k]
                acc += diff * diff
            if acc < best:
                best = acc
                best_j = j
        out[i] = best_j
    return out


def _ref_bias(g: np.ndarray, nn: np.ndarray) -> float:
    n = g.shape[0]
    terms = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            terms.append(g[i, j] * g[nn[i], j] - g[i, j] * g[i, j])
    return math.fsum(terms) / (n * (n - 1))


def nn_suite(quick: bool = False, seed: int = 17) -> tuple[bool, str]:
    """build_nn against the in-module double loop on random and tied data."""
    cases = 30 if quick else 100
    n_hi = 128 if quick else 512
    rng = derive_rng(seed)
    for case in range(cases):
        # Alternate between sizes below and above the tree cutoff, and mix
        # continuous draws with coarse lattices that force distance ties.
        if case % 2 == 0:
            n = int(rng.integers(4, 64))
        else:
            n = int(rng.integers(65, n_hi + 1))
        d = int(rng.integers(1, 13))
        if case % 3 == 0:
            x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        else:
            x = rng.random((n, d))
        got = build_nn(x)
        want = _ref_nn(x)
        if not np.array_equal(got.nn, want):
            bad = int(np.nonzero(got.nn != want)[0][0])
            return False, (
                f"case {case}: n={n} d={d} row {bad}: got {got.nn[bad]}, want {want[bad]}"
            )
    return True, f"{cases} instances matched"


def bias_suite(quick: bool = False, seed: int = 29) -> tuple[bool, str]:
    """bias_estimate on random factors against the double loop over g, to 1e-12.

    Cases cycle through rank one (K = 1), low rank (1 < K < n), K >= n, and
    p = I with betas an arbitrary explicit g. The factors are scaled so that
    g has standard normal entries whatever K is.
    """
    cases = 20 if quick else 50
    rng = derive_rng(seed)
    worst = 0.0
    for case in range(cases):
        n = int(rng.integers(3, 40 if quick else 80))
        kind = case % 4
        if kind == 3:
            p, betas = np.eye(n), rng.standard_normal((n, n))
        else:
            k = (1, int(rng.integers(2, n)), int(rng.integers(n, n + 8)))[kind]
            p = rng.standard_normal((n, k))
            betas = rng.standard_normal((k, n)) / math.sqrt(k)
        nn_idx = rng.integers(0, n - 1, size=n)
        nn_idx[nn_idx >= np.arange(n)] += 1  # any j != i is a valid neighbor map
        graph = NnGraph(nn=nn_idx.astype(np.int64), dist=np.zeros(n))
        got = bias_estimate(p, betas, graph)
        want = _ref_bias(p @ betas, nn_idx)
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-12:
            return False, f"case {case}: n={n} K={p.shape[1]} |diff|={err:.3e}"
    return True, f"{cases} instances, worst |diff| {worst:.2e}"


def ridge_suite(quick: bool = False, seed: int = 43) -> tuple[bool, str]:
    """Normal-equation residuals of the shared-factorization fit, <= 1e-8.

    The right-hand sides are rebuilt here from the explicit n x n indicator
    matrix, independently of the suffix-sum shortcut used by the fit.
    """
    cases = 8 if quick else 20
    rng = derive_rng(seed)
    worst = 0.0
    for case in range(cases):
        n = int(rng.integers(20, 80 if quick else 200))
        d = int(rng.integers(1, 7))
        x = rng.random((n, d))
        y = rng.standard_normal(n)
        if case % 4 == 0:
            y = np.round(y, 1)  # duplicated thresholds
        basis = basis_index_set(d, 2)
        p = design_matrix(x, basis)
        for lam in (1e-4, 1e-2, 1.0, default_lambda(n)):
            model = ridge_fit_all(p, y, lam)
            a = p.T @ p + n * lam * np.eye(basis.size)
            ind = (y[:, None] >= y[None, :]).astype(np.float64)
            rhs = p.T @ ind
            resid = a @ model.betas - rhs
            rel = np.linalg.norm(resid, axis=0) / (1.0 + np.linalg.norm(rhs, axis=0))
            worst = max(worst, float(rel.max()))
            if rel.max() > 1e-8:
                return False, (
                    f"case {case}: n={n} d={d} lam={lam:g} residual {rel.max():.3e}"
                )
    return True, f"{cases} instances x 4 penalties, worst residual {worst:.2e}"


def truth_suite() -> tuple[bool, str]:
    """Closed-form truth against precomputed references; endpoints exact."""
    if true_t(0.0).value != 0.0:
        return False, "value at 0 is not exactly 0"
    if true_t(1.0).value != 1.0:
        return False, "value at 1 is not exactly 1"
    worst = 0.0
    for rho, want in _TRUTH_REFERENCE.items():
        err = abs(true_t(rho).value - want)
        worst = max(worst, err)
        if err > 1e-12:
            return False, f"rho={rho}: |diff|={err:.3e}"
    grid = np.linspace(0.0, 1.0, 101)
    vals = [true_t(float(r)).value for r in grid]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return False, "not strictly increasing on [0, 1]"
    return True, f"endpoints exact, worst |diff| {worst:.2e}, strictly increasing"


SUITES = (
    ("nearest-neighbor vs double loop", nn_suite),
    ("bias term vs double loop", bias_suite),
    ("ridge normal equations", ridge_suite),
    ("closed-form truth", truth_suite),
)


def run_selftest(quick: bool = False, out=print) -> bool:
    """Run every suite, print one PASS/FAIL line each, return overall truth."""
    all_ok = True
    for name, fn in SUITES:
        start = time.perf_counter()
        if fn is truth_suite:
            ok, detail = fn()
        else:
            ok, detail = fn(quick=quick)
        took = time.perf_counter() - start
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail} [{took:.1f}s]")
    return all_ok
