"""Tests for the polynomial basis and the all-thresholds ridge solver."""

import math

import numpy as np
import pytest

from nncorr.dataset import minmax_scale
from nncorr.errors import BasisSizeError, DimensionMismatchError, InputError
from nncorr.ridge_series import (
    basis_index_set,
    design_matrix,
    ridge_fit_all,
)


def _fit(x, y, lam, degree=2):
    basis = basis_index_set(x.shape[1], degree)
    p = design_matrix(minmax_scale(x), basis)
    return p, ridge_fit_all(p, y, lam)


# ---------------------------------------------------------------------------
# basis_index_set / design_matrix


def test_basis_two_covariates_degree_two():
    basis = basis_index_set(2, 2)
    assert [tuple(e) for e in basis.exponents] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]
    assert basis.size == 6


def test_basis_ordering_is_degree_then_lexicographic():
    basis = basis_index_set(3, 3)
    exps = [tuple(int(v) for v in e) for e in basis.exponents]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))
    assert len(exps) == len(set(exps)) == math.comb(3 + 3, 3)


def test_basis_size_matches_binomial():
    for d, degree in [(1, 0), (1, 5), (4, 2), (6, 2), (8, 3)]:
        assert basis_index_set(d, degree).size == math.comb(d + degree, degree)


def test_basis_degree_zero_is_constant_only():
    basis = basis_index_set(5, 0)
    assert basis.size == 1
    assert tuple(basis.exponents[0]) == (0, 0, 0, 0, 0)


def test_basis_cap_enforced():
    # C(142, 2) = 10011 just exceeds the default cap of 10000.
    assert basis_index_set(139, 2).size == math.comb(141, 2)
    with pytest.raises(BasisSizeError):
        basis_index_set(140, 2)
    with pytest.raises(InputError):
        basis_index_set(0, 2)
    with pytest.raises(InputError):
        basis_index_set(2, -1)


def test_basis_is_cached_and_read_only():
    basis = basis_index_set(6, 2)
    assert basis_index_set(6, 2) is basis
    with pytest.raises(ValueError):
        basis.exponents[0, 0] = 1
    # Errors are not cached: a bad request raises every time.
    for _ in range(2):
        with pytest.raises(BasisSizeError):
            basis_index_set(140, 2)


def test_design_matrix_hand_row():
    basis = basis_index_set(2, 2)
    row = design_matrix(np.array([[0.5, 1.0]]), basis)[0]
    np.testing.assert_array_equal(row, [1.0, 1.0, 0.5, 1.0, 0.5, 0.25])


def test_design_matrix_zero_row_uses_zero_power_convention():
    basis = basis_index_set(2, 2)
    row = design_matrix(np.array([[0.0, 0.0]]), basis)[0]
    np.testing.assert_array_equal(row, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_design_matrix_against_naive_powers():
    rng = np.random.default_rng(41)
    x = rng.uniform(size=(25, 3))
    basis = basis_index_set(3, 3)
    p = design_matrix(x, basis)
    naive = np.empty_like(p)
    for k, e in enumerate(basis.exponents):
        naive[:, k] = np.prod(x ** np.asarray(e)[None, :], axis=1)
    np.testing.assert_allclose(p, naive, rtol=1e-13)


def test_design_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        design_matrix(np.zeros((4, 3)), basis_index_set(2, 2))


# ---------------------------------------------------------------------------
# ridge_fit_all


def test_constant_basis_closed_form():
    # With only the constant column, each threshold solve is scalar:
    # (n + n*lam) * beta = #(y >= t), so beta = frac / (1 + lam).
    basis = basis_index_set(1, 0)
    x = np.array([[0.1], [0.2], [0.3], [0.4]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    p = design_matrix(x, basis)
    model = ridge_fit_all(p, y, 0.25)
    assert model.betas.shape == (1, 4)
    np.testing.assert_allclose(model.betas[0], np.array([1.0, 0.75, 0.5, 0.25]) / 1.25)
    # The fitted matrix column at the smallest threshold is 1/(1+lam).
    g = model.p @ model.betas
    np.testing.assert_allclose(g[:, 0], 0.8)


def test_residual_identity_against_explicit_indicators():
    # The solver never forms 1(y_i >= y_j) directly; rebuilding it here and
    # checking the normal equations validates the suffix-sum shortcut.
    rng = np.random.default_rng(42)
    for tied in (False, True):
        n = 40
        x = rng.standard_normal((n, 2))
        y = np.floor(4 * rng.uniform(size=n)) if tied else rng.standard_normal(n)
        p, model = _fit(x, y, lam=1e-3)
        ind = (y[:, None] >= y[None, :]).astype(np.float64)  # ind[i, j] = 1(y_i >= y_j)
        rhs = p.T @ ind
        gram = p.T @ p + n * model.lam * np.eye(p.shape[1])
        resid = gram @ model.betas - rhs
        rel = np.linalg.norm(resid) / (1.0 + np.linalg.norm(rhs))
        assert rel <= 1e-8


def test_near_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(43)
    n = 60
    x = rng.uniform(size=(n, 2))
    y = rng.standard_normal(n)
    p, model = _fit(x, y, lam=1e-10)
    fitted = p @ model.betas
    for j in range(0, n, 7):
        ind = (y >= y[j]).astype(np.float64)
        beta_ls, *_ = np.linalg.lstsq(p, ind, rcond=None)
        np.testing.assert_allclose(fitted[:, j], p @ beta_ls, atol=1e-5)


def test_coefficient_norm_shrinks_as_penalty_grows():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    lams = [1e-4, 1e-2, 1e-1, 1.0, 10.0]
    norms = []
    for lam in lams:
        _, model = _fit(x, y, lam)
        norms.append(np.linalg.norm(model.betas, axis=0))
    for a, b in zip(norms, norms[1:]):
        assert np.all(a >= b - 1e-10)
    # Very large penalties drive every coefficient toward zero.
    _, heavy = _fit(x, y, 1e8)
    assert np.abs(heavy.betas).max() < 1e-5


def test_tied_thresholds_share_solutions():
    # Equal responses define the same indicator, hence identical columns.
    rng = np.random.default_rng(45)
    x = rng.standard_normal((30, 2))
    y = np.repeat(np.arange(10.0), 3)
    _, model = _fit(x, y, lam=0.01)
    for j in range(0, 30, 3):
        np.testing.assert_array_equal(model.betas[:, j], model.betas[:, j + 1])
        np.testing.assert_array_equal(model.betas[:, j], model.betas[:, j + 2])


def test_ghat_matrix_permutation_equivariance():
    rng = np.random.default_rng(46)
    n = 35
    x = rng.uniform(size=(n, 2))
    y = rng.standard_normal(n)
    basis = basis_index_set(2, 2)
    m = ridge_fit_all(design_matrix(x, basis), y, 0.05)
    g = m.p @ m.betas
    perm = rng.permutation(n)
    mp = ridge_fit_all(design_matrix(x[perm], basis), y[perm], 0.05)
    gp = mp.p @ mp.betas
    np.testing.assert_allclose(gp, g[np.ix_(perm, perm)], atol=1e-9)


def test_fit_validation():
    p = np.ones((5, 1))
    y = np.arange(5.0)
    with pytest.raises(InputError):
        ridge_fit_all(p, y, 0.0)
    with pytest.raises(InputError):
        ridge_fit_all(p, y, -1.0)
    with pytest.raises(DimensionMismatchError):
        ridge_fit_all(p, np.arange(4.0), 0.1)
