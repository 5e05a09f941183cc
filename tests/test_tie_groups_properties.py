"""Property tests: the one stable sort behind the ranks and the ridge
right-hand sides equals the m x m comparison matrix it replaces, and
every stage function gives each row of a stack the bits it gets alone.

The drawn (c, m) stacks mix rows of distinct, tied and constant
responses. Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from nncorr.bias_correction import (  # noqa: E402
    _bias_term,
    _primal_l_hat,
    _rank_coefficient,
    default_lambda,
)
from nncorr.dataset import _tie_groups, minmax_scale  # noqa: E402
from nncorr.errors import InputError  # noqa: E402
from nncorr.ridge_series import (  # noqa: E402
    _descending,
    _threshold_rhs,
    design_matrix,
)

_PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_CONTINUOUS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_LEVELS = st.integers(0, 3).map(float)


@st.composite
def row(draw, m):
    kind = draw(st.sampled_from(("distinct", "tied", "constant")))
    if kind == "constant":
        return np.full(m, draw(_CONTINUOUS))
    cells = _CONTINUOUS if kind == "distinct" else _LEVELS
    return draw(hnp.arrays(np.float64, m, elements=cells, unique=kind == "distinct"))


@st.composite
def stacks(draw):
    c, m = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    return np.stack([draw(row(m)) for _ in range(c)])


def _le(y):
    # le[b, i, j] = 1(y_bj <= y_bi), the comparison matrix of each row.
    return y[..., None, :] <= y[..., :, None]


def _covariates(y, seed):
    # Scaled (c, m, 3) covariates, whose design matrices are nonnegative, so
    # the sums carry no cancellation.
    c, m = y.shape
    return minmax_scale(np.random.default_rng(seed).uniform(size=(c, m, 3)))


@_PROFILE
@given(stacks())
def test_tie_groups_match_the_comparison_matrix(y):
    c, m = y.shape
    order, first, ranks = _tie_groups(y)
    np.testing.assert_array_equal(ranks, _le(y).sum(axis=-1))
    np.testing.assert_array_equal(m - first, (y[..., None, :] >= y[..., :, None]).sum(axis=-1))
    # order sorts every row within its own stretch of y.ravel().
    np.testing.assert_array_equal(order // m, np.repeat(np.arange(c), m))
    np.testing.assert_array_equal(y.ravel()[order].reshape(c, m), np.sort(y, axis=-1))


@_PROFILE
@given(stacks(), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_threshold_rhs_matches_the_comparison_gemm(y, seed, block):
    # Blocks of 1 to 12 thresholds; tie groups straddle their edges. The
    # design rows are built per block from the covariates.
    c, m = y.shape
    xs = _covariates(y, seed)
    p = design_matrix(xs, 2)
    order, first, _ = _tie_groups(y)
    desc, need = _descending(order, first)
    want = np.swapaxes(p, -1, -2) @ _le(y)
    got = np.full(want.shape, np.nan)
    gram, blocks = _threshold_rhs(np.take(xs.reshape(c * m, 3), desc, axis=0), 2, need, block)
    for lo, hi, pb, rhs in blocks:
        assert hi - lo <= block and rhs.flags.c_contiguous
        np.testing.assert_array_equal(pb, p[np.arange(c)[:, None], desc[:, lo:hi] % m])
        np.put_along_axis(got, desc[:, None, lo:hi] % m, rhs, axis=-1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(gram, np.swapaxes(p, -1, -2) @ p, rtol=1e-13, atol=0.0)


@_PROFILE
@given(stacks(), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_each_row_of_a_stack_gets_the_single_sample_bits(y, seed, block):
    c, m = y.shape
    xs = _covariates(y, seed)
    nn = np.random.default_rng([seed, 1]).integers(0, m - 1, size=(c, m))
    nn[nn >= np.arange(m)] += 1  # any j != i is a valid neighbor map
    order, first, ranks = _tie_groups(y)
    lam = default_lambda(m)
    l_hat = _bias_term(xs, 2, order, first, ranks, lam, nn)  # K = 10: dual below m = 10
    # The primal bias term at any m, in blocks of 1 to 12 rows.
    blocked = _primal_l_hat(xs, 2, order, first, lam, nn, block)
    t_alone, errors = {}, []
    for b in range(c):
        order_b, first_b, ranks_b = _tie_groups(y[b][None])
        np.testing.assert_array_equal(ranks[b], ranks_b[0])
        alone = _bias_term(xs[b][None], 2, order_b, first_b, ranks_b, lam, nn[b][None])
        np.testing.assert_array_equal(l_hat[b], alone[0])
        blocked_b = _primal_l_hat(xs[b][None], 2, order_b, first_b, lam, nn[b][None], block)
        np.testing.assert_array_equal(blocked[b], blocked_b[0])
        try:
            t_alone[b] = _rank_coefficient(ranks_b, nn[b][None])[0]
        except InputError as exc:  # a constant or heavily tied row
            errors.append(str(exc))
    # The rows that pass alone get the same bits in a stack of their own; a
    # stack with a failing row raises the first one's error.
    ok = list(t_alone)
    if ok:
        np.testing.assert_array_equal(_rank_coefficient(ranks[ok], nn[ok]), list(t_alone.values()))
    if errors:
        with pytest.raises(InputError) as err:
            _rank_coefficient(ranks, nn)
        assert str(err.value) == errors[0]
