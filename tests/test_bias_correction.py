"""Tests for the pairwise bias term and the end-to-end estimation pipeline."""

import math
import tracemalloc

import numpy as np
import pytest

from nncorr.dataset import Sample, compute_ranks, minmax_scale
from nncorr.errors import DimensionMismatchError, InputError
from nncorr.nn_graph import NnGraph, build_nn
from nncorr.estimator import chatterjee_t
from nncorr.ridge_series import basis_index_set, design_matrix, ridge_fit_all
from nncorr.bias_correction import (
    PipelineConfig,
    bias_estimate,
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


def _graph(nn):
    nn = np.asarray(nn)
    return NnGraph(nn=nn, dist=np.zeros(len(nn)))


def _random_nn(rng, n):
    nn = rng.integers(0, n - 1, size=n)
    nn[nn >= np.arange(n)] += 1
    return nn


# ---------------------------------------------------------------------------
# bias_estimate


def _explicit(g):
    # p = I and betas = g: the factored form of an arbitrary explicit matrix.
    return np.eye(g.shape[0]), g


def test_hand_example_two_points():
    # Ordered pairs (0,1) and (1,0):
    #   (0,1): g01*g11 - g01^2 = 0.5*0.75 - 0.25   = 0.125
    #   (1,0): g10*g00 - g10^2 = 0.25*1 - 0.0625   = 0.1875
    # mean over n(n-1)=2 pairs = 0.15625.
    g = np.array([[1.0, 0.5], [0.25, 0.75]])
    assert bias_estimate(*_explicit(g), _graph([1, 0])) == 0.15625


def test_identical_rows_give_exactly_zero():
    # If g does not depend on its first index, every pair term cancels.
    rng = np.random.default_rng(51)
    row = rng.uniform(size=30)
    g = np.tile(row, (30, 1))
    assert bias_estimate(*_explicit(g), _graph(_random_nn(rng, 30))) == 0.0


def test_matches_double_loop_reference():
    rng = np.random.default_rng(52)
    for _ in range(5):
        n = int(rng.integers(10, 60))
        g = rng.uniform(size=(n, n))
        nn = _random_nn(rng, n)
        got = bias_estimate(*_explicit(g), _graph(nn))
        assert abs(got - _ref_bias(g, nn)) <= 1e-12
    # Rank one, low rank and K > n factors.
    for n, k in ((12, 1), (40, 6), (30, 45)):
        p = rng.uniform(size=(n, k))
        betas = rng.uniform(size=(k, n)) / k
        nn = _random_nn(rng, n)
        got = bias_estimate(p, betas, _graph(nn))
        assert abs(got - _ref_bias(p @ betas, nn)) <= 1e-12


def test_matches_reference_across_block_boundary():
    # Powers of two are common blocking sizes in the matrix products.
    rng = np.random.default_rng(53)
    for n in (255, 256, 257):
        g = rng.uniform(size=(n, n))
        nn = _random_nn(rng, n)
        got = bias_estimate(*_explicit(g), _graph(nn))
        assert abs(got - _ref_bias(g, nn)) <= 1e-12


def test_bias_validation():
    p, betas = _explicit(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        bias_estimate(p, betas, _graph([1, 0]))
    with pytest.raises(DimensionMismatchError):
        bias_estimate(np.zeros((3, 2)), np.zeros((3, 2)), _graph([1, 2, 0]))
    with pytest.raises(InputError):
        bias_estimate(np.zeros((1, 2)), np.zeros((2, 1)), _graph([0]))


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
    assert res.n == s.n and res.d == s.d
    assert res.t_bc == res.t_hat - 6.0 * res.l_hat
    assert res.config == PipelineConfig()


def test_estimate_is_deterministic():
    s = _sample()
    a = estimate(s)
    b = estimate(s)
    assert (a.t_hat, a.l_hat, a.t_bc) == (b.t_hat, b.l_hat, b.t_bc)


def test_estimate_t_hat_matches_direct_computation():
    s = _sample()
    g = build_nn(minmax_scale(s.x).xs)
    t = chatterjee_t(compute_ranks(s.y), g).value
    assert estimate(s).t_hat == t
    # Without scaling the neighbor graph is built on the raw covariates.
    g_raw = build_nn(s.x)
    t_raw = chatterjee_t(compute_ranks(s.y), g_raw).value
    assert estimate(s, PipelineConfig(scale_covariates=False)).t_hat == t_raw


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
    xs = minmax_scale(s.x).xs
    basis = basis_index_set(s.d, 2)
    model = ridge_fit_all(design_matrix(xs, basis), s.y, default_lambda(n))
    want = _ref_bias(model.p @ model.betas, build_nn(xs).nn)
    assert abs(res.l_hat - want) <= 1e-12 * abs(want)


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


def test_default_lambda_value():
    assert default_lambda(100, exponent=0.5) == 0.1
    assert default_lambda(1) == 1.0
