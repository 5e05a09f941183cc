"""Property tests: build_nn equals the double-loop reference, and the stacked
search equals build_nn, on drawn inputs.

The draws mix continuous matrices, small integer lattices and matrices
with duplicated rows, so the kd-tree's settled rows, its duplicate groups
and its exact re-score of tied rows are all exercised. Derandomized, so
every run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from nncorr.nn_graph import _stacked_nn, build_nn  # noqa: E402
from test_nn_graph import _ref_nn  # noqa: E402

_PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_CONTINUOUS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_LATTICE = st.integers(0, 3).map(float)


@st.composite
def matrices(draw, shape=None):
    n, d = shape or (draw(st.integers(2, 40)), draw(st.integers(1, 6)))
    kind = draw(st.sampled_from(("continuous", "lattice", "duplicated")))
    if kind != "duplicated":
        cells = _CONTINUOUS if kind == "continuous" else _LATTICE
        return draw(hnp.arrays(np.float64, (n, d), elements=cells))
    # Every row a copy of one of fewer distinct rows.
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=_CONTINUOUS))
    rows = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=n, max_size=n))
    return base[rows]


@_PROFILE
@given(matrices())
def test_build_nn_matches_reference(x):
    np.testing.assert_array_equal(build_nn(x), _ref_nn(x))


@st.composite
def stacks(draw):
    # Up to 20 columns: numpy sums more than seven terms pairwise, so only
    # a column-by-column sum in both searches keeps them identical there.
    shape = (draw(st.integers(2, 40)), draw(st.integers(1, 20)))
    return np.stack([draw(matrices(shape)) for _ in range(draw(st.integers(1, 4)))])


@_PROFILE
@given(stacks())
def test_stacked_nn_matches_build_nn(xs):
    got = _stacked_nn(xs)
    for j, x in enumerate(xs):
        np.testing.assert_array_equal(got[j], build_nn(x))
