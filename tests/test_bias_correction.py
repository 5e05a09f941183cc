"""Tests for the pairwise bias term and the end-to-end estimation pipeline."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nncorr import bias_correction, ridge_series, selftest
from nncorr.dataset import Sample, _tie_groups, minmax_scale
from nncorr.errors import InputError
from nncorr.nn_graph import build_nn
from nncorr.ridge_series import design_matrix
from nncorr.bias_correction import (
    PipelineConfig,
    _bias_term,
    _check_monomials,
    _pair_mean,
    _rank_coefficient,
    _threshold_terms,
    default_lambda,
    estimate,
)


def _ref_bias(g, nn):
    """Literal double loop over ordered pairs, summed with math.fsum."""
    n = g.shape[0]
    terms = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            terms.append(g[i, j] * g[nn[i], j] - g[i, j] ** 2)
    return math.fsum(terms) / (n * (n - 1))


def _random_nn(rng, n):
    nn = rng.integers(0, n - 1, size=n)
    nn[nn >= np.arange(n)] += 1
    return nn


# ---------------------------------------------------------------------------
# bias term


def _bias(p, betas, nn):
    # The pipeline's pair terms of the factors p and betas, every threshold
    # one block, on a stack of one sample, summed as the pipeline sums them.
    d = p[nn] - p
    return float(_pair_mean(_threshold_terms((p.T @ d)[None], p[None], d[None], betas[None]))[0])


def _explicit_fit(p, y, lam):
    # g = P (P'P + m*lam*I)^-1 P' Y from the explicit indicator matrix Y.
    m, k = p.shape
    ind = (y[:, None] >= y[None, :]).astype(np.float64)
    return p @ np.linalg.solve(p.T @ p + m * lam * np.eye(k), p.T @ ind)


def _explicit(g):
    # p = I and betas = g: the factored form of an arbitrary explicit matrix.
    return np.eye(g.shape[0]), g


def test_hand_example_two_points():
    # Ordered pairs (0,1) and (1,0):
    #   (0,1): g01*g11 - g01^2 = 0.5*0.75 - 0.25   = 0.125
    #   (1,0): g10*g00 - g10^2 = 0.25*1 - 0.0625   = 0.1875
    # mean over n(n-1)=2 pairs = 0.15625.
    g = np.array([[1.0, 0.5], [0.25, 0.75]])
    assert _bias(*_explicit(g), np.array([1, 0])) == 0.15625


def test_identical_rows_give_exactly_zero():
    # If g does not depend on its first index, every pair term cancels.
    rng = np.random.default_rng(51)
    row = rng.uniform(size=30)
    g = np.tile(row, (30, 1))
    assert _bias(*_explicit(g), _random_nn(rng, 30)) == 0.0


def test_matches_double_loop_reference():
    rng = np.random.default_rng(52)
    for _ in range(5):
        n = int(rng.integers(10, 60))
        g = rng.uniform(size=(n, n))
        nn = _random_nn(rng, n)
        got = _bias(*_explicit(g), nn)
        assert abs(got - _ref_bias(g, nn)) <= 1e-12
    # Rank one, low rank and K > n factors.
    for n, k in ((12, 1), (40, 6), (30, 45)):
        p = rng.uniform(size=(n, k))
        betas = rng.uniform(size=(k, n)) / k
        nn = _random_nn(rng, n)
        got = _bias(p, betas, nn)
        assert abs(got - _ref_bias(p @ betas, nn)) <= 1e-12


def test_matches_reference_across_block_boundary():
    # Powers of two are common blocking sizes in the matrix products.
    rng = np.random.default_rng(53)
    for n in (255, 256, 257):
        g = rng.uniform(size=(n, n))
        nn = _random_nn(rng, n)
        got = _bias(*_explicit(g), nn)
        assert abs(got - _ref_bias(g, nn)) <= 1e-12


# ---------------------------------------------------------------------------
# estimate pipeline


def _sample(seed=56, n=150, d=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = x[:, 0] + 0.3 * rng.standard_normal(n)
    return Sample(x=x, y=y)


def test_estimate_reports_consistent_fields():
    s = _sample()
    res = estimate(s)
    assert [f.name for f in dataclasses.fields(res)] == ["t_hat", "l_hat", "t_bc"]
    assert res.t_bc == res.t_hat - 6.0 * res.l_hat


def test_estimate_is_deterministic():
    s = _sample()
    a = estimate(s)
    b = estimate(s)
    assert (a.t_hat, a.l_hat, a.t_bc) == (b.t_hat, b.l_hat, b.t_bc)


def test_estimate_t_hat_matches_direct_computation():
    s = _sample()
    ranks = _tie_groups(s.y[None])[2]
    g = build_nn(minmax_scale(s.x))
    t = _rank_coefficient(ranks, g[None])[0]
    assert estimate(s).t_hat == t
    # Without scaling the neighbor graph is built on the raw covariates.
    g_raw = build_nn(s.x)
    t_raw = _rank_coefficient(ranks, g_raw[None])[0]
    assert estimate(s, PipelineConfig(scale_covariates=False)).t_hat == t_raw


def test_overflowing_distances_raise():
    # Unscaled rows 1e200 apart: without the range check each row is its
    # own nearest neighbour and t_hat comes out as -1.5.
    s = Sample(x=np.arange(5.0)[:, None] * 1e200, y=np.arange(5.0))
    with pytest.raises(InputError, match="squared distances overflow"):
        estimate(s, PipelineConfig(degree=0, scale_covariates=False))
    assert estimate(s, PipelineConfig(degree=0)).t_hat == 0.0


def test_overflowing_design_matrix_raises_without_a_warning():
    # Unscaled x near 1e160, 1e150 apart: the squared distances are finite,
    # but the squares in the degree-2 design matrix overflow.
    x = 1e160 + np.random.default_rng(7).uniform(size=(20, 2)) * 1e150
    s = Sample(x=x, y=np.arange(20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^design matrix contains NaN or infinite entries$"):
            estimate(s, PipelineConfig(scale_covariates=False))


def _overflow_edge(degree):
    # The largest float whose degree-th power, by repeated products, is
    # finite, and the next float up. At degree 1 no finite float overflows.
    big = np.finfo(float).max
    if degree == 1:
        return (big,)

    def power(t):
        with np.errstate(over="ignore"):
            p = 1.0
            for _ in range(degree):
                p *= t
        return p

    t = big ** (1.0 / degree)
    while not np.isfinite(power(t)):
        t = np.nextafter(t, 0.0)
    while np.isfinite(power(np.nextafter(t, np.inf))):
        t = np.nextafter(t, np.inf)
    return t, np.nextafter(t, np.inf)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_monomial_check_raises_exactly_when_the_design_matrix_overflows(degree):
    # Rows of mixed signs and magnitudes around the overflow edge, on either
    # side of it, with the largest |x| in any column and of either sign.
    rng = np.random.default_rng(66 + degree)
    message = "design matrix contains NaN or infinite entries"
    for top, overflows in zip(_overflow_edge(degree), (False, True)):
        for col in range(3):
            for sign in (1.0, -1.0):
                x = rng.uniform(-1.0, 1.0, size=(2, 5, 3)) * top ** rng.uniform(0, 1, (2, 5, 3))
                x[1, 3, col] = sign * top
                finite = np.isfinite(design_matrix(x, degree)).all(axis=(-2, -1))
                assert finite.tolist() == [True, not overflows]
                if finite.all():
                    _check_monomials(x, degree)
                else:
                    with pytest.raises(InputError, match=f"^{message}$"):
                        _check_monomials(x, degree)
                    _check_monomials(x[:1], degree)


def test_pair_mean_takes_its_terms_in_chunks_with_the_bits_of_one_list(monkeypatch):
    # Terms that cancel to 1e-16 of their size: math.fsum of one n-long list
    # is the reference, and fsum rounds once whatever the chunks.
    rng = np.random.default_rng(65)
    big = rng.standard_normal((3, 4000)) * 1e16
    rows = rng.permuted(np.concatenate([big, -big, rng.standard_normal((3, 9))], axis=1), axis=1)
    n = rows.shape[-1]
    want = np.array([math.fsum(r) for r in rows.tolist()]) / (n * (n - 1))
    assert np.abs(want).max() < 1e-6
    for budget in (0, 32 * 7, 32 * n, bias_correction._CHUNK_BYTES):
        monkeypatch.setattr(bias_correction, "_CHUNK_BYTES", budget)
        np.testing.assert_array_equal(_pair_mean(rows), want)


def test_constant_response_is_an_input_error():
    rng = np.random.default_rng(48)
    s = Sample(x=rng.uniform(size=(50, 3)), y=np.full(50, 0.25))
    with pytest.raises(InputError, match="^the response is constant over all 50 rows"):
        estimate(s)


def test_degree_zero_correction_vanishes():
    # A constant-only basis fits the same value to every row, so the pair
    # average cancels term by term and the correction is a no-op.
    res = estimate(_sample(), PipelineConfig(degree=0))
    assert res.l_hat == 0.0
    assert res.t_bc == res.t_hat


def test_t_hat_invariant_under_increasing_y_transform():
    s = _sample()
    res = estimate(s)
    res_exp = estimate(Sample(x=s.x, y=np.exp(s.y)))
    assert res_exp.t_hat == res.t_hat


@pytest.mark.parametrize("n", [2, 3, 17, 140])
def test_pipeline_l_hat_matches_double_loop(n):
    s = _sample(seed=57, n=n, d=6)
    res = estimate(s)
    xs = minmax_scale(s.x)
    p = design_matrix(xs, 2)
    want = _ref_bias(_explicit_fit(p, s.y, default_lambda(n)), build_nn(xs))
    assert abs(res.l_hat - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("c,m,d,degree,tied,rows", [
    (1, 8, 3, 2, False, None),   # K = 10 > m: the dual system
    (1, 8, 3, 2, True, None),
    (1, 12, 3, 3, False, None),  # K = 20
    (1, 30, 3, 2, False, None),  # K = 10 <= m: the primal system, one block
    (1, 12, 3, 1, True, None),   # K = 4
    (1, 30, 3, 2, True, 4),      # blocks of 4 rows, which tie groups straddle
    (3, 30, 3, 2, True, 7),      # a stack in blocks of 7 rows
    (2, 40, 3, 3, True, 6),      # K = 20, a stack in blocks of 6 rows
    (1, 12, 3, 0, True, None),   # K = 1, where l_hat is exactly 0
    (1, 16, 6, 4, False, None),  # K = 210, the degree-4 basis of d = 6
], ids=["dual", "dual-tied-dup", "dual-degree3", "primal", "primal-tied-dup",
        "primal-blocks-tied", "primal-stack-blocks", "primal-degree3-stack-blocks", "degree0",
        "dual-degree4"])
def test_bias_term_matches_exact_rational_oracle(monkeypatch, c, m, d, degree, tied, rows):
    # A tied case rounds the responses to two to four levels, repeats
    # one row, response included, and that row's neighbor is its copy.
    # ``rows`` sets the primal path's blocks through the byte budget.
    k = math.comb(d + degree, degree)
    if rows is not None:
        monkeypatch.setattr(ridge_series, "_CHUNK_BYTES", 8 * k * rows)
    rng = np.random.default_rng(64 + m)
    x = np.empty((c, m, d))
    y = np.empty((c, m))
    for b in range(c):
        x[b] = rng.uniform(size=(m, d))
        y[b] = x[b, :, 0] + 0.5 * rng.standard_normal(m)
        if tied:
            y[b] = np.round(2 * y[b] / np.ptp(y[b]))
            x[b, -1], y[b, -1] = x[b, 0], y[b, 0]
    xs = minmax_scale(x)
    nn = np.stack([build_nn(a) for a in xs])
    lam = default_lambda(m)
    got = _bias_term(xs, degree, *_tie_groups(y), lam, nn)
    for b in range(c):
        want = selftest._exact_l_hat(design_matrix(xs[b], degree), y[b], lam, nn[b].tolist())
        assert (want != 0) == (degree > 0)
        assert abs(Fraction(float(got[b])) - want) <= Fraction(1, 10**12) * abs(want)


def _mp_l_hat(p, y, lam, nn):
    # selftest._exact_l_hat's primal system (m >= K) in 200-bit mpmath
    # arithmetic. The fitted curve of a threshold depends only on its
    # response, so the system is solved once per distinct response.
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.prec = 200
    m, k = p.shape
    rows = [[ctx.mpf(v) for v in row] for row in p.tolist()]
    cols = list(zip(*rows))
    gram = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = ctx.fdot(cols[i], cols[j])
        gram[i][i] += m * ctx.mpf(lam)
    levels = sorted(set(y.tolist()))
    rhs = [[ctx.fsum(v for v, yr in zip(col, y.tolist()) if yr >= t) for t in levels]
           for col in cols]
    betas = list(zip(*selftest._exact_solve(gram, rhs)))
    g = [[ctx.fdot(row, b) for b in betas] for row in rows]  # g[i][level]
    count = [int((y == t).sum()) for t in levels]
    at = [levels.index(v) for v in y.tolist()]
    total = ctx.fsum(
        count[t] * g[i][t] * (g[nn[i]][t] - g[i][t]) for i in range(m) for t in range(len(levels))
    ) - ctx.fsum(g[i][at[i]] * (g[nn[i]][at[i]] - g[i][at[i]]) for i in range(m))
    return total / (m * (m - 1)), ctx


def test_bias_term_at_k84_matches_a_high_precision_oracle(monkeypatch):
    # d = 6 at degree 3 (K = 84), the basis size of ROADMAP item 7, on the
    # primal path in blocks of 16 rows: responses on a few levels, whose
    # tie groups straddle the blocks, and one repeated row.
    m, k = 100, 84
    monkeypatch.setattr(ridge_series, "_CHUNK_BYTES", 8 * k * 16)
    rng = np.random.default_rng(84)
    x = rng.uniform(size=(m, 6))
    y = x[:, 0] + 0.5 * rng.standard_normal(m)
    y = np.round(4 * y / np.ptp(y))
    x[-1], y[-1] = x[0], y[0]
    xs = minmax_scale(x)
    nn = build_nn(xs)
    lam = default_lambda(m)
    got = _bias_term(xs[None], 3, *_tie_groups(y[None]), lam, nn[None])[0]
    want, ctx = _mp_l_hat(design_matrix(xs, 3), y, lam, nn.tolist())
    assert want != 0
    assert abs(ctx.mpf(float(got)) - want) <= ctx.mpf(1e-12) * abs(want)


def test_selftest_bias_suite_checks_against_the_exact_oracle(monkeypatch):
    ok, detail = selftest.bias_suite(quick=True)
    assert ok and "2 exact instances" in detail, detail
    # An oracle off by 1e-11 relative fails the suite at its first exact case.
    real = selftest._exact_l_hat
    off = 1 + Fraction(1, 10**11)
    monkeypatch.setattr(selftest, "_exact_l_hat", lambda *args: real(*args) * off)
    ok, detail = selftest.bias_suite(quick=True)
    assert not ok and detail.startswith("exact case m=8 "), detail


def _blocked_cases(m=60):
    # Three (m, d = 3) samples: continuous responses; responses on 7 levels
    # plus a tie group of 17 rows that spans several blocks of 5; and rows
    # and responses drawn with replacement, so copies are nearest neighbors.
    rng = np.random.default_rng(62)
    x = rng.uniform(size=(3, m, 3))
    y = x[..., 0] + 0.5 * rng.standard_normal((3, m))
    y[1] = np.round(3 * y[1])
    y[1, 20:37] = y[1, 0]
    idx = rng.integers(0, m // 2, m)
    x[2], y[2] = x[2, idx], y[2, idx]
    return x, y


def test_blocked_bias_term_matches_double_loop(monkeypatch):
    # Blocks of 5 thresholds and rows at K = 10: the running suffix sum is
    # carried across 12 blocks, and tie groups straddle their edges.
    monkeypatch.setattr(ridge_series, "_CHUNK_BYTES", 8 * 10 * 5)
    x, y = _blocked_cases()
    xs = minmax_scale(x)
    nn = np.stack([build_nn(a) for a in xs])
    lam = default_lambda(60)
    l_hat = _bias_term(xs, 2, *_tie_groups(y), lam, nn)
    for b in range(3):
        want = _ref_bias(_explicit_fit(design_matrix(xs[b], 2), y[b], lam), nn[b])
        assert abs(l_hat[b] - want) <= 1e-12 * abs(want)
        # Each sample gets the bits alone that it gets in the stack.
        alone = _bias_term(xs[b][None], 2, *_tie_groups(y[b][None]), lam, nn[b][None])
        assert alone[0] == l_hat[b]


def test_results_agree_across_block_lengths(monkeypatch):
    # Blocks of 1, 7 and 100 thresholds, the default 1 170 at K = 28, and
    # one block: the sums are reordered, so l_hat moves by rounding only.
    rng = np.random.default_rng(63)
    x = rng.uniform(size=(3000, 6))
    y = x[:, 0] + 0.5 * rng.standard_normal(3000)
    for s in (Sample(x=x, y=y), Sample(x=x, y=np.round(4 * y))):
        results = []
        for budget in (0, 8 * 28 * 7, 8 * 28 * 100, ridge_series._CHUNK_BYTES, 1 << 40):
            monkeypatch.setattr(ridge_series, "_CHUNK_BYTES", budget)
            results.append(estimate(s))
        want = results[-1]
        for res in results:
            assert res.t_hat == want.t_hat
            assert abs(res.l_hat - want.l_hat) <= 1e-13 * abs(want.l_hat)


@pytest.mark.parametrize("degree", [2, 3])
def test_estimate_memory_holds_no_design_matrix(degree):
    # At n = 30 000 the design matrix P would hold n*K floats, 6.4 MiB at
    # degree 2 (K = 28) and 19.2 MiB at degree 3 (K = 84). The primal bias
    # term builds its rows in blocks of (block, K) floats from the
    # covariates, so the peak stays below 1.5 such matrices at degree 2,
    # whatever the degree.
    n = 30_000
    s = _sample(seed=61, n=n, d=6)
    tracemalloc.start()
    try:
        estimate(s, PipelineConfig(degree=degree))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * 28 * 8


@pytest.mark.parametrize("degree", [2, 3])
def test_bias_term_memory_stays_below_two_copies_of_x(degree):
    # At n = 30 000, d = 6 the primal bias term gathers each block's rows
    # straight from the scaled covariates, so beyond its inputs it holds
    # less than two (n, d) float arrays: no copy of x in response order,
    # and no (n, K) or (K, K, n) array at any degree.
    n, d = 30_000, 6
    s = _sample(seed=61, n=n, d=d)
    xs = minmax_scale(s.x)[None]
    nn = build_nn(xs[0])[None]
    stages = _tie_groups(s.y[None])
    tracemalloc.start()
    try:
        _bias_term(xs, degree, *stages, default_lambda(n), nn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 8


def test_estimate_memory_stays_linear_in_n():
    # The n x n survival matrix at n = 20 000 would take 3.2 GB; the
    # factored bias term needs O(n K) floats.
    s = _sample(seed=61, n=20_000, d=6)
    tracemalloc.start()
    try:
        estimate(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_correction_reduces_bias_under_strong_dependence():
    # Under near-functional dependence the raw coefficient reads low on
    # moderate samples; the corrected value should land noticeably higher.
    rng = np.random.default_rng(60)
    n = 300
    x = rng.uniform(size=(n, 6))
    y = x[:, 0] + 0.05 * rng.standard_normal(n)
    res = estimate(Sample(x=x, y=y))
    assert res.t_bc > res.t_hat


def test_config_validation():
    with pytest.raises(InputError):
        PipelineConfig(degree=-1)
    with pytest.raises(InputError):
        PipelineConfig(lambda_exponent=0.0)
    with pytest.raises(InputError):
        default_lambda(0)
    with pytest.raises(InputError):
        default_lambda(10, exponent=-1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"degree": 2.5}, "need a whole number degree, got 2.5"),
    ({"degree": "2"}, "need a whole number degree, got '2'"),
    ({"degree": None}, "need a whole number degree, got None"),
    ({"lambda_exponent": "1.2"}, "need a number lambda_exponent, got '1.2'"),
])
def test_config_refuses_a_wrong_type(kwargs, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PipelineConfig(**kwargs)
    if "lambda_exponent" in kwargs:
        with pytest.raises(InputError, match="^need a number penalty exponent, got '1.2'$"):
            default_lambda(10, "1.2")


def test_config_stores_a_whole_float_degree_as_its_int():
    cfg = PipelineConfig(degree=2.0)
    assert type(cfg.degree) is int
    assert estimate(_sample(), cfg) == estimate(_sample(), PipelineConfig(degree=2))


def test_default_lambda_value():
    assert default_lambda(100, exponent=0.5) == 0.1
    assert default_lambda(1) == 1.0
