"""Built-in oracle-equivalence suites, runnable from the command line.

Each suite pits a function the pipeline itself runs (the neighbor searches,
``_threshold_terms``, ``_bias_term``, the design matrix, both ridge solves, the
bootstrap's index block, the closed-form truth), on a stack of one sample
where it checks one, against an independent reference implementation kept
in this module (deliberately not shared with the production code, so a
defect introduced there cannot silently cancel out here). Intended as a
release gate.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bias_correction import (
    _bias_term,
    _pair_mean,
    _primal_l_hat,
    _threshold_terms,
    default_lambda,
)
from .dataset import _tie_groups
from .nn_graph import _stacked_nn, build_nn
from .ridge_series import (
    _descending,
    _dual_solve,
    _primal_solve,
    basis_index_set,
    design_matrix,
)
from .rng import _integers_block, derive_rng
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
    # Row-by-row scan: squared distances to every row, accumulated one
    # coordinate at a time; the first minimizer wins, so ties resolve to the
    # smallest index.
    n, d = x.shape
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        acc = np.zeros(n)
        for k in range(d):
            diff = x[i, k] - x[:, k]
            acc += diff * diff
        acc[i] = math.inf
        out[i] = int(np.argmin(acc))
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


def _exact_solve(a, b):
    # Gauss-Jordan on [a | b] in rationals; a is symmetric positive definite,
    # so every pivot is nonzero without row exchanges.
    n = len(a)
    rows = [a[i] + b[i] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _exact_l_hat(p: np.ndarray, y: np.ndarray, lam: float, nn: list[int]) -> Fraction:
    """``l_hat`` of one (m, K) design ``p`` in exact rational arithmetic.

    Every float is a dyadic rational, so P, lambda and the indicators
    Y[i, j] = 1(y_i >= y_j) are exact and so is l_hat. The fitted curves
    come from whichever ridge system is smaller, as in the pipeline: g = P
    (P'P + m*lam*I)^-1 P'Y when m >= K, g = Y - m*lam*(PP' + m*lam*I)^-1 Y
    when m < K. The two are equal in exact arithmetic.
    """
    # Imported here: the CLI imports this module, and fractions would load
    # decimal into every process that imports nncorr.
    from fractions import Fraction

    m, k = p.shape
    P = [[Fraction(v) for v in row] for row in p.tolist()]
    shift = m * Fraction(lam)
    ind = [[Fraction(int(a >= b)) for b in y.tolist()] for a in y.tolist()]
    if m >= k:
        gram = [[sum(P[r][i] * P[r][j] for r in range(m)) + (shift if i == j else 0)
                 for j in range(k)] for i in range(k)]
        rhs = [[sum(P[r][i] for r in range(m) if ind[r][j]) for j in range(m)]
               for i in range(k)]
        betas = _exact_solve(gram, rhs)
        g = [[sum(P[i][t] * betas[t][j] for t in range(k)) for j in range(m)] for i in range(m)]
    else:
        outer = [[sum(P[i][t] * P[j][t] for t in range(k)) + (shift if i == j else 0)
                  for j in range(m)] for i in range(m)]
        z = _exact_solve(outer, ind)
        g = [[ind[i][j] - shift * z[i][j] for j in range(m)] for i in range(m)]
    total = sum(g[i][j] * (g[nn[i]][j] - g[i][j]) for i in range(m) for j in range(m) if j != i)
    return total / (m * (m - 1))


def nn_suite(quick: bool = False, seed: int = 17) -> tuple[bool, str]:
    """Both neighbor searches against the in-module double loop, random and tied data.

    Both kernels, build_nn and _stacked_nn on a stack of one matrix, see
    every case, with d up to 20, whichever of them the pipeline would pick.

    Every fifth case also gets copies of random rows of its own, so the
    suite covers duplicate rows as well as lattice ties. The copies come
    from a stream of their own, leaving the other draws unchanged.
    """
    cases = 30 if quick else 100
    n_hi = 128 if quick else 512
    rng = derive_rng(seed)
    for case in range(cases):
        # Alternate between small and larger sizes, and mix continuous draws
        # with coarse lattices that force distance ties.
        if case % 2 == 0:
            n = int(rng.integers(4, 64))
        else:
            n = int(rng.integers(65, n_hi + 1))
        d = int(rng.integers(1, 21))
        if case % 3 == 0:
            x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        else:
            x = rng.random((n, d))
        if case % 5 == 4:
            dup = derive_rng(seed, case)
            x = np.concatenate([x, x[dup.integers(0, n, size=1 + n // 8)]])
            x = x[dup.permutation(x.shape[0])]
            n = x.shape[0]
        want = _ref_nn(x)
        searches = {"build_nn": build_nn(x), "_stacked_nn": _stacked_nn(x[None])[0]}
        for search, got in searches.items():
            if not np.array_equal(got, want):
                bad = int(np.nonzero(got != want)[0][0])
                return False, (
                    f"case {case}: {search} n={n} d={d} row {bad}: "
                    f"got {got[bad]}, want {want[bad]}"
                )
    return True, f"{cases} instances matched by both searches"


def bias_suite(quick: bool = False, seed: int = 29) -> tuple[bool, str]:
    """``_threshold_terms`` and ``_bias_term`` against the double loop over g, to 1e-12.

    ``_threshold_terms`` takes random factors p and betas, every threshold
    one block, with the cross sum C = p'(p[nn] - p), and its terms are
    summed as the pipeline sums them. Cases cycle through rank one (K = 1),
    low rank (1 < K < n), K >= n, and p = I with betas an arbitrary
    explicit g. The factors are scaled so that g has standard normal
    entries whatever K is.

    ``_bias_term`` takes random designs smaller than their basis (m < K,
    the m x m dual path). Its primal path (m >= K) takes random covariates
    with a basis of degree 1 to 3 and builds the design rows itself, all in
    one block; the same path streamed in blocks of 1 to 7 rows, which tie
    groups straddle, building each block's rows again in its second pass,
    must agree with it to 1e-13. The oracle g = P (P'P + m*lam*I)^-1 P' Y of
    both paths is solved here from the explicit indicator matrix Y. Their
    rows are drawn with replacement, so many rows have a copy of their own
    as nearest neighbor, and every other case rounds the responses into
    ties. Each of the two kinds comes from a stream of its own, leaving the
    other draws unchanged.

    Two small ``_bias_term`` cases, one per ridge system, are checked
    against ``l_hat`` in exact rational arithmetic (:func:`_exact_l_hat`)
    to 1e-12 relative, from a third stream.
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
        d = p[nn_idx] - p
        terms = _threshold_terms((p.T @ d)[None], p[None], d[None], betas[None])
        got = float(_pair_mean(terms)[0])
        want = _ref_bias(p @ betas, nn_idx)
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-12:
            return False, f"case {case}: n={n} K={p.shape[1]} |diff|={err:.3e}"
    worst_blocks = 0.0
    for kind, stream in (("dual", derive_rng(seed, 1)), ("primal", derive_rng(seed, 2))):
        for case in range(cases):
            if kind == "dual":
                k = int(stream.integers(3, 60))
                m = int(stream.integers(2, k))
                rows = stream.standard_normal((m, k))
            else:
                d, degree = int(stream.integers(1, 7)), int(stream.integers(1, 4))
                k = math.comb(d + degree, degree)
                m, block = int(stream.integers(max(k, 2), k + 60)), int(stream.integers(1, 8))
                rows = stream.random((m, d))
            idx = stream.integers(0, m, size=m)
            rows = rows[idx]
            y = stream.standard_normal(m)[idx]
            if case % 2:
                y = np.round(y)
            nn_idx = _ref_nn(rows)  # a repeated row's nearest neighbor is a copy
            lam = default_lambda(m)
            order, first, ranks = _tie_groups(y[None])
            if kind == "dual":
                p = rows
                got = _bias_term(p[None], None, order, first, ranks, lam, nn_idx[None])
            else:  # _bias_term's primal path, in one block and in small ones
                p = design_matrix(rows, degree)
                args = (rows[None], degree, order, first, lam, nn_idx[None])
                got = _primal_l_hat(*args, m)
                streamed = _primal_l_hat(*args, block)
                diff = abs(float(streamed[0] - got[0]))
                worst_blocks = max(worst_blocks, diff)
                if diff > 1e-13:
                    return False, (
                        f"primal case {case}: m={m} K={k} blocks of {block} |diff|={diff:.3e}"
                    )
            ind = (y[:, None] >= y[None, :]).astype(np.float64)
            g = p @ np.linalg.solve(p.T @ p + m * lam * np.eye(k), p.T @ ind)
            err = abs(float(got[0]) - _ref_bias(g, nn_idx))
            worst = max(worst, err)
            if err > 1e-12:
                return False, f"{kind} case {case}: m={m} K={k} |diff|={err:.3e}"
    # The smallest exact cases, against l_hat in rational arithmetic: the
    # dual system at (m, K) = (8, 10), and the primal one at (12, 4) with
    # responses rounded to a few levels and a repeated row, whose nearest
    # neighbor is its copy.
    worst_exact = 0.0
    stream = derive_rng(seed, 3)
    for m, degree, tied in ((8, 2, False), (12, 1, True)):
        rows = stream.random((m, 3))
        y = rows[:, 0] + 0.5 * stream.standard_normal(m)
        if tied:
            y = np.round(2 * y / np.ptp(y))
            rows[-1], y[-1] = rows[0], y[0]
        nn_idx = _ref_nn(rows)
        lam = default_lambda(m)
        got = _bias_term(rows[None], degree, *_tie_groups(y[None]), lam, nn_idx[None])
        want = _exact_l_hat(design_matrix(rows, degree), y, lam, nn_idx.tolist())
        err = float(abs(want.from_float(float(got[0])) - want) / abs(want))
        worst_exact = max(worst_exact, err)
        if err > 1e-12:
            return False, f"exact case m={m} degree {degree}: relative error {err:.3e}"
    return True, (
        f"{cases} factored + {cases} dual + {cases} primal instances, "
        f"worst |diff| {worst:.2e}, streamed against one block {worst_blocks:.2e}, "
        f"2 exact instances within {worst_exact:.1e} relative"
    )


def _fit_residual(p: np.ndarray, y: np.ndarray, lam: float, fit: np.ndarray) -> float:
    # Relative residual of the system the pipeline solves for (p, y), with
    # Y[i, j] = 1(y_i >= y_j) built here as an explicit n x n indicator
    # matrix: the primal (P'P + n*lam*I) betas = P'Y when n >= K, the dual
    # (PP' + n*lam*I) Z = Y when n < K.
    n, k = p.shape
    ind = (y[:, None] >= y[None, :]).astype(np.float64)
    if n >= k:
        a, rhs = p.T @ p, p.T @ ind
    else:
        a, rhs = p @ p.T, ind
    resid = (a + n * lam * np.eye(a.shape[0])) @ fit - rhs
    return float((np.linalg.norm(resid, axis=0) / (1.0 + np.linalg.norm(rhs, axis=0))).max())


def _ridge_fit(p: np.ndarray, y: np.ndarray, lam: float, block: int) -> np.ndarray:
    # The pipeline's solve of a (c, n, K) stack: the (c, K, n) betas, from
    # blocks of ``block`` thresholds, when n >= K, the (c, n, n) dual
    # solution Z when n < K.
    order, first, ranks = _tie_groups(y)
    c, n, k = p.shape
    if n < k:
        return _dual_solve(p, first, ranks, lam)[1]
    desc, _ = _descending(order, first)
    betas = np.empty((c, k, n))
    # The neighbors enter only the cross sum, which is not read here.
    _, blocks = _primal_solve(p, None, order, first, np.zeros_like(first), lam, block)
    for lo, hi, *_, cols in blocks:
        np.put_along_axis(betas, desc[:, None, lo:hi] % n, cols, axis=-1)
    return betas


def _design_error(x: np.ndarray, degree: int) -> float:
    # Largest relative error of design_matrix against every monomial taken
    # as a product of powers in extended precision.
    exps = basis_index_set(x.shape[1], degree)
    want = np.prod(x.astype(np.longdouble)[:, None, :] ** exps, axis=-1)
    err = np.abs(design_matrix(x, degree) - want) / np.where(want == 0, 1, np.abs(want))
    return float(err.max())


def ridge_suite(quick: bool = False, seed: int = 43) -> tuple[bool, str]:
    """Design matrices within 1e-15 relative, residuals of the ridge systems <= 1e-8.

    Each case first checks the design matrix of its sample at degree
    case % 6 against powers in extended precision, then the ridge fits.

    The right-hand sides are rebuilt here from the explicit n x n indicator
    matrix, independently of the suffix sums of the primal fit (n >= K) and
    of the rank comparisons of the dual one (n < K). Each case checks the
    fit of the whole sample at four penalties and a stacked solve on five
    subsamples drawn with replacement, whose repeated rows tie their
    responses; samples smaller than the basis take the dual, whose residual
    is that of (PP' + n*lam*I) Z = Y. The primal solve of case i runs in
    blocks of 1 + i % 8 thresholds.
    """
    cases = 8 if quick else 20
    rng = derive_rng(seed)
    worst = worst_p = 0.0
    for case in range(cases):
        n = int(rng.integers(20, 80 if quick else 200))
        d = int(rng.integers(1, 7))
        x = rng.random((n, d))
        y = rng.standard_normal(n)
        if case % 4 == 0:
            y = np.round(y, 1)  # duplicated thresholds
        rel = _design_error(x, case % 6)
        worst_p = max(worst_p, rel)
        if rel > 1e-15:
            return False, f"case {case}: n={n} d={d} degree {case % 6} design error {rel:.3e}"
        p = design_matrix(x, 2)
        for lam in (1e-4, 1e-2, 1.0, default_lambda(n)):
            rel = _fit_residual(p, y, lam, _ridge_fit(p[None], y[None], lam, 1 + case % 8)[0])
            worst = max(worst, rel)
            if rel > 1e-8:
                return False, f"case {case}: n={n} d={d} lam={lam:g} residual {rel:.3e}"
        # The subsamples come from a stream of their own, leaving the other
        # draws unchanged.
        sub = derive_rng(seed, case)
        idx = sub.integers(0, n, size=(5, int(sub.integers(2, 41))))
        ps, ys = p[idx], y[idx]
        m = ys.shape[1]
        lam = default_lambda(m)
        fits = _ridge_fit(ps, ys, lam, 1 + case % 8)
        for b in range(ys.shape[0]):
            rel = _fit_residual(ps[b], ys[b], lam, fits[b])
            worst = max(worst, rel)
            if rel > 1e-8:
                return False, f"case {case}: subsample {b} m={m} d={d} residual {rel:.3e}"
    return True, (
        f"{cases} instances x (4 penalties + 5 subsamples), worst residual {worst:.2e}, "
        f"worst design matrix error {worst_p:.2e}"
    )


def draws_suite(quick: bool = False, seed: int = 59) -> tuple[bool, str]:
    """The bootstrap's index block against one generator per replicate.

    Row r of ``_integers_block(s, n, m, b)`` must equal
    ``derive_rng(s, r).integers(0, n, size=m)`` exactly, for random seeds
    of one and two 32-bit words, n up to 2**32 - 1 and random block shapes.
    Case 0 takes n = 2**31 + 1, where about half of the 32-bit candidates
    are rejected. A NumPy whose SeedSequence hashing, PCG64 seeding or
    ``integers`` method changes fails here.
    """
    cases = 20 if quick else 60
    rng = derive_rng(seed)
    for case in range(cases):
        s = int(rng.integers(0, 2**32 if case % 3 else 2**64, dtype=np.uint64))
        if case == 0:
            n = 2**31 + 1
        else:
            n = int(rng.integers(2, 2**32 if case % 2 else 4000))
        m = int(rng.integers(2, 80))
        b = int(rng.integers(2, 200))
        got = _integers_block(s, n, m, b)
        for r in range(b):
            want = derive_rng(s, r).integers(0, n, size=m)
            if not np.array_equal(got[r], want):
                return False, f"case {case}: seed={s} n={n} m={m} row {r} differs"
    return True, f"{cases} blocks matched row by row"


def truth_suite() -> tuple[bool, str]:
    """Closed-form truth against precomputed references; endpoints exact."""
    if true_t(0.0) != 0.0:
        return False, "value at 0 is not exactly 0"
    if true_t(1.0) != 1.0:
        return False, "value at 1 is not exactly 1"
    worst = 0.0
    for rho, want in _TRUTH_REFERENCE.items():
        err = abs(true_t(rho) - want)
        worst = max(worst, err)
        if err > 1e-12:
            return False, f"rho={rho}: |diff|={err:.3e}"
    grid = np.linspace(0.0, 1.0, 101)
    vals = [true_t(float(r)) for r in grid]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return False, "not strictly increasing on [0, 1]"
    return True, f"endpoints exact, worst |diff| {worst:.2e}, strictly increasing"


SUITES = (
    ("nearest-neighbor vs double loop", nn_suite),
    ("bias term vs double loop", bias_suite),
    ("design matrix and ridge normal equations", ridge_suite),
    ("bootstrap draws vs per-replicate generators", draws_suite),
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
