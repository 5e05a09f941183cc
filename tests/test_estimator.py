"""Tests for the nearest-neighbor rank coefficient."""

import numpy as np
import pytest

from nncorr.bias_correction import _rank_coefficient
from nncorr.dataset import _tie_groups
from nncorr.errors import InputError
from nncorr.nn_graph import build_nn


def _t(x, y):
    # The pipeline's stage functions on a stack of one sample.
    return float(_rank_coefficient(_tie_groups(y[None])[2], build_nn(x)[None])[0])


def test_hand_example_three_points():
    # Ranks 1,2,3 and neighbor chain 0<->1, 2->1 give a rank-min sum of 4:
    # 6*4/(9-1) - 7/2 = -1/2.
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 3.0])
    assert _t(x, y) == -0.5


def test_two_points_is_minus_one():
    # With n=2 the ranks are {1, 2} and each point is the other's neighbor,
    # so the rank-min sum is 2: 6*2/(4-1) - 5/1 = -1 regardless of the data.
    assert _t(np.array([[0.0], [1.0]]), np.array([4.0, 9.0])) == -1.0
    assert _t(np.array([[5.0], [2.0]]), np.array([9.0, 4.0])) == -1.0


def test_perfect_monotone_dependence_approaches_one():
    n = 2000
    x = np.linspace(0.0, 1.0, n)[:, None]
    assert _t(x, x[:, 0]) > 0.99
    # A decreasing relationship is dependence too, not anti-dependence.
    assert _t(x, -x[:, 0]) > 0.99


def test_independence_is_near_zero():
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(5000, 2))
    y = rng.uniform(size=5000)
    assert abs(_t(x, y)) < 0.05


def test_invariant_under_increasing_y_transform():
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = rng.standard_normal((80, 3))
        y = rng.standard_normal(80)
        base = _t(x, y)
        assert _t(x, np.exp(y)) == base
        assert _t(x, 2.0 * y + 5.0) == base
        assert _t(x, y**3) == base


def test_not_symmetric_in_role_of_x_and_y():
    # The coefficient measures dependence of y on x; swapping roles changes
    # the value in general.
    rng = np.random.default_rng(33)
    x = rng.standard_normal(300)
    y = x**2 + 0.05 * rng.standard_normal(300)
    forward = _t(x[:, None], y)
    backward = _t(y[:, None], x)
    assert forward > 0.5
    assert backward < forward


def test_tied_responses_are_handled():
    # Discrete y with a few levels stays within the sane range.
    rng = np.random.default_rng(34)
    x = rng.standard_normal((500, 2))
    y = np.floor(3.0 * rng.uniform(size=500))
    v = _t(x, y)
    assert np.isfinite(v) and -3.0 <= v <= 1.5


def test_constant_response_is_rejected():
    # Every rank equals n, so the raw formula blows past its upper bound and
    # the sanity check refuses to return a value: an input error, since only
    # tied responses can leave the range.
    rng = np.random.default_rng(35)
    x = rng.standard_normal((10, 2))
    with pytest.raises(InputError, match="outside sane range"):
        _t(x, np.ones(10))
