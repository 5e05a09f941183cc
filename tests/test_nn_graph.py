"""Tests for exact nearest-neighbor graph construction.

The reference oracle is a literal O(n^2 d) triple loop that scans candidate
neighbors in index order and keeps the first strict improvement, which is
exactly the smallest-index tie rule the production code must implement.
The kd-tree of build_nn and the stacked search of the bootstrap are both
checked against it; inputs too large for the loop are checked against a
block-vectorised brute force with the same tie rule.
"""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import ndtr

from nncorr import _threads
from nncorr.errors import InputError
from nncorr import nn_graph
from nncorr.nn_graph import _search_stack, _stacked_nn, build_nn


def _ref_nn(x):
    # Squared differences are added one column at a time, the order both
    # searches use; numpy's .sum() switches to pairwise summation at d >= 8.
    n = x.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        best, best_d2 = -1, math.inf
        for j in range(n):
            if j == i:
                continue
            d2 = 0.0
            for diff in (x[i] - x[j]).tolist():
                d2 += diff * diff
            if d2 < best_d2:
                best, best_d2 = j, d2
        out[i] = best
    return out


def test_hand_example_line():
    g = build_nn(np.array([[0.0], [1.0], [3.0]]))
    assert g.dtype == np.int64
    assert g.tolist() == [1, 0, 1]
    # Squared distances near 1e307 are still finite, so no range check trips.
    assert build_nn(np.array([[0.0], [1e153], [3e153]])).tolist() == [1, 0, 1]


def test_tie_breaks_to_smallest_index():
    # Point 1 is equidistant from 0 and 2; the rule picks index 0.
    g = build_nn(np.array([[0.0], [1.0], [2.0]]))
    assert g[1] == 0


def test_duplicate_rows_give_zero_distance():
    g = build_nn(np.array([[1.0], [1.0], [2.0]]))
    assert g.tolist() == [1, 0, 0]
    # A triple of duplicates all point at the smallest other index.
    g3 = build_nn(np.array([[5.0, 5.0]] * 3))
    assert g3.tolist() == [1, 0, 0]
    # Two points are each other's neighbors, duplicated or not.
    assert build_nn(np.array([[2.0, 2.0]] * 2)).tolist() == [1, 0]
    assert build_nn(np.array([[0.0], [7.0]])).tolist() == [1, 0]
    # 1e-200 squares to 0: every row is at zero distance from the others,
    # though row 1 is no copy of rows 0 and 2.
    under = np.array([[0.0], [1e-200], [0.0]])
    assert build_nn(under).tolist() == [1, 0, 0]
    assert _stacked_nn(under[None]).tolist() == [[1, 0, 0]]


def test_search_stack_equals_both_kernels_around_the_switch(monkeypatch):
    # Tied lattice rows and continuous rows, at m just below and just above
    # the size where the stacked search leaves brute force for the kd-tree.
    calls = []
    monkeypatch.setattr(nn_graph, "build_nn", lambda x: calls.append(1) or build_nn(x))
    rng = np.random.default_rng(81)
    for m in (nn_graph._BRUTE_MAX_M, nn_graph._BRUTE_MAX_M + 1):
        xs = np.stack([rng.integers(0, 3, size=(m, 3)).astype(float), rng.random((m, 3))])
        calls.clear()
        got = _search_stack(xs)
        assert len(calls) == (0 if m <= nn_graph._BRUTE_MAX_M else 2)
        np.testing.assert_array_equal(got, _stacked_nn(xs))
        np.testing.assert_array_equal(got, np.stack([build_nn(x) for x in xs]))


def _check_both_searches(x):
    # build_nn on the matrix and the stacked search on a stack of one.
    want = _ref_nn(x)
    np.testing.assert_array_equal(build_nn(x), want)
    np.testing.assert_array_equal(_stacked_nn(x[None]), want[None])


def test_matches_reference_small_continuous():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        _check_both_searches(rng.standard_normal((n, d)))
    for n in (2, 3):
        for d in (1, 16, 20):
            _check_both_searches(rng.standard_normal((n, d)))


def test_matches_reference_with_lattice_ties():
    # Integer grids force many exactly-tied distances.
    rng = np.random.default_rng(22)
    for _ in range(8):
        n = int(rng.integers(6, 50))
        d = int(rng.integers(1, 4))
        _check_both_searches(rng.integers(0, 3, size=(n, d)).astype(np.float64))
    for n in (2, 3):
        for d in (1, 16, 20):
            _check_both_searches(rng.integers(0, 2, size=(n, d)).astype(np.float64))
    # Every row three times, shuffled.
    for n, d in ((4, 2), (30, 5), (40, 16)):
        base = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        _check_both_searches(np.concatenate([base, base, base])[rng.permutation(3 * n)])


def test_tree_path_matches_reference():
    rng = np.random.default_rng(23)
    for d in (1, 3, 8, 16, 20):
        _check_both_searches(rng.standard_normal((200, d)))


def test_tree_path_agrees_on_tied_lattice():
    rng = np.random.default_rng(24)
    _check_both_searches(rng.integers(0, 4, size=(300, 2)).astype(np.float64))
    for d in (16, 20):
        _check_both_searches(rng.integers(0, 2, size=(120, d)).astype(np.float64))


def test_high_dimension_matches_reference():
    rng = np.random.default_rng(25)
    for d in (16, 20):
        _check_both_searches(rng.standard_normal((120, d)))


def test_both_searches_sum_columns_in_order():
    # Rows 1 and 2 are at squared distance 1 from row 0, up to six terms of
    # 2**-54 for row 1 that a column-by-column sum rounds away, so the tie
    # goes to the smaller index. numpy's pairwise sum of eight or more terms
    # would round row 1 up to 1 + 2**-52 and pick row 2.
    x = np.zeros((3, 8))
    x[1, 0] = 1.0
    x[1, 2:] = 2.0**-27
    x[2, 1] = 1.0
    assert build_nn(x)[0] == 1
    assert _ref_nn(x)[0] == 1
    _check_both_searches(x)



def _block_ref_nn(x, block=256):
    # Vectorised brute force, a block of rows at a time; argmin keeps the
    # first minimizer, so ties resolve to the smallest index.
    n = x.shape[0]
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        b = np.arange(lo, min(lo + block, n))
        d2 = ((x[b, None] - x[None]) ** 2).sum(-1)
        d2[np.arange(b.size), b] = np.inf
        out[b] = d2.argmin(axis=1)
    return out


def _copula_with_ties(rng, n=3000, d=4):
    # Settled rows from a Gaussian copula, mixed with rows that must take
    # the exact re-score: 20 duplicated rows and a small integer lattice.
    z = rng.standard_normal((n, d)) @ np.linalg.cholesky(0.5 * np.eye(d) + 0.5).T
    x = ndtr(z)
    dups = x[rng.integers(0, n, size=20)]
    lattice = rng.integers(0, 3, size=(60, d)).astype(np.float64)
    x = np.concatenate([x, dups, lattice])
    return x[rng.permutation(x.shape[0])]


def test_fallback_rows_mixed_with_settled_rows():
    x = _copula_with_ties(np.random.default_rng(28))
    want = _block_ref_nn(x)
    # The duplicated rows and lattice points really are tied.
    d2 = ((x - x[want]) ** 2).sum(axis=1)
    assert (d2 == 0.0).sum() >= 40
    np.testing.assert_array_equal(build_nn(x), want)


def test_worker_count_does_not_change_result():
    rng = np.random.default_rng(26)
    # From n = 2000 up the search takes two workers where the setting allows;
    # at n = 3000 the leaf order moves rows far from their row order, and each
    # worker queries a contiguous slice of it.
    inputs = (
        rng.standard_normal((2000, 3)),
        _copula_with_ties(rng, n=2000, d=3),
        _copula_with_ties(rng, n=3000, d=4),
    )
    try:
        for x in inputs:
            want = _block_ref_nn(x)
            for workers in (1, 2, os.cpu_count()):
                _threads.set_workers(workers)
                np.testing.assert_array_equal(build_nn(x), want)
    finally:
        _threads.set_workers(None)


class _WorkerSpy(cKDTree):
    # The kd-tree of build_nn, recording the workers of every query.
    seen = []

    def query(self, *args, workers=1, **kwargs):
        self.seen.append(workers)
        return super().query(*args, workers=workers, **kwargs)


@pytest.mark.parametrize("n", [999, 1000, 1999, 2000])
def test_workers_are_capped_by_rows(monkeypatch, n):
    # One worker per _ROWS_PER_WORKER rows, at least one, within the setting;
    # the answer is the same at every count.
    monkeypatch.setattr(nn_graph, "cKDTree", _WorkerSpy)
    x = _copula_with_ties(np.random.default_rng(n), n=n - 80, d=3)
    want = _block_ref_nn(x)
    try:
        for setting in (1, 2, os.cpu_count()):
            _threads.set_workers(setting)
            _WorkerSpy.seen.clear()
            np.testing.assert_array_equal(build_nn(x), want)
            cap = max(1, n // nn_graph._ROWS_PER_WORKER)
            assert _WorkerSpy.seen == [min(setting, cap, os.cpu_count())]
    finally:
        _threads.set_workers(None)


class _BallSpy(cKDTree):
    # The kd-tree of build_nn, counting its ball queries.
    balls = 0

    def query_ball_point(self, *args, **kwargs):
        _BallSpy.balls += 1
        return super().query_ball_point(*args, **kwargs)


def test_settled_rows_make_no_ball_query(monkeypatch):
    # Continuous rows all settle in the first query; copies need the re-score.
    monkeypatch.setattr(nn_graph, "cKDTree", _BallSpy)
    rng = np.random.default_rng(29)
    _BallSpy.balls = 0
    build_nn(rng.random((3000, 3)))
    assert _BallSpy.balls == 0
    x = rng.integers(0, 10, size=(3000, 2)) / 9.0
    np.testing.assert_array_equal(build_nn(x), _block_ref_nn(x))
    assert _BallSpy.balls == 1


def test_zero_distance_rows_that_are_not_copies():
    # 0 and 1e-200 are at squared distance 0 (1e-200 squares to 0) but are
    # no copies; 0 and -0.0 compare equal. Beside copies of 5 and 7, the
    # re-score gives each row the reference's answer.
    rng = np.random.default_rng(30)
    for tiny in ([[0.0], [1e-200], [0.0]], [[0.0], [-0.0], [3.0], [0.0]]):
        x = np.concatenate([tiny, [[5.0]] * 4, [[7.0]] * 3, rng.random((20, 1)) + 8.0])
        for perm in (np.arange(len(x)), rng.permutation(len(x))):
            np.testing.assert_array_equal(build_nn(x[perm]), _ref_nn(x[perm]))
    two = np.array([[0.0, 1.0], [1e-200, 1.0], [0.0, 1.0], [1e-200, 1.0], [4.0, 4.0], [4.0, 4.0]])
    np.testing.assert_array_equal(build_nn(two), _ref_nn(two))


def test_build_nn_transient_memory():
    # The tree, the output and the query's (n, 2) neighbor arrays: the traced
    # peak at n = 30 000, d = 6 stays within 2.5 times the covariates' bytes.
    n, d = 30_000, 6
    x = np.random.default_rng(32).random((n, d))
    tracemalloc.start()
    try:
        build_nn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * d * 8


def test_in_degree_bound():
    # In fixed dimension the number of points sharing a nearest neighbor is
    # geometrically bounded; 3^d - 1 holds for the smallest-index rule.
    rng = np.random.default_rng(27)
    for d in (1, 2, 3):
        x = rng.standard_normal((500, d))
        g = build_nn(x)
        counts = np.bincount(g, minlength=500)
        assert counts.max() <= 3**d - 1


@pytest.mark.parametrize("x", [
    [[0.0], [1e200], [2e200]],
    [[-1e308, 0.0], [1e308, 0.0]],
    [[0.0] * 20, [1e154] * 20],
])
def test_rejects_ranges_whose_squared_distances_overflow(x):
    # Unchecked, these rows become their own neighbours (the tree reports
    # index n at distance inf), so the pipeline checks unscaled covariates
    # before either search: a matrix, and a stack with one bad matrix. No
    # overflow warning either.
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="squared distances overflow"):
            nn_graph._check_range(x)
        with pytest.raises(InputError, match="squared distances overflow"):
            nn_graph._check_range(np.stack([x / 1e300, x]))
        nn_graph._check_range(x / 1e300)
