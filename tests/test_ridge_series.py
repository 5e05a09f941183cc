"""Tests for the polynomial basis and the all-thresholds ridge solver."""

import math

import numpy as np
import pytest

from nncorr import bias_correction, ridge_series
from nncorr.bias_correction import _bias_term, _neighbor_diff, _primal_l_hat, default_lambda
from nncorr.dataset import _tie_groups, minmax_scale
from nncorr.errors import InputError
from nncorr.nn_graph import _search_stack
from nncorr.ridge_series import (
    BASIS_CAP,
    _block_rows,
    _descending,
    _dual_solve,
    _invert_shifted,
    _product_plan,
    _threshold_betas,
    _threshold_rhs,
    basis_index_set,
    design_matrix,
)

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property test below is skipped without it
    given = None


def _columns(blocks, desc):
    # The (c, K, m) array, columns in row order, whose columns at the
    # descending positions lo:hi the blocks of _threshold_rhs or
    # _threshold_betas hold.
    c, m = desc.shape
    out = None
    for lo, hi, _, cols in blocks:
        if out is None:
            out = np.full((c, cols.shape[-2], m), np.nan)
        np.put_along_axis(out, desc[:, None, lo:hi] % m, cols, axis=-1)
    return out


def _descending_rows(rows, order, first):
    # The rows of a (c, m, .) stack in descending response order, and the
    # order and suffix rows of ridge_series._descending.
    c, m, w = rows.shape
    desc, need = _descending(order, first)
    return np.take(rows.reshape(c * m, w), desc, axis=0), desc, need


def _primal(rows, degree, order, first, lam, block):
    # The primal solve of a (c, m, .) stack: the (c, K, m) betas of every
    # threshold, from design rows built per block of covariate rows, or
    # held whole when degree is None.
    xd, desc, need = _descending_rows(rows, order, first)
    return _columns(_threshold_betas(xd, degree, need, lam, block), desc)


def _rhs(p, order, first, block):
    # The Gram matrices and the (c, K, m) right-hand sides of a design stack.
    pd, desc, need = _descending_rows(p, order, first)
    gram, blocks = _threshold_rhs(pd, None, need, block)
    return gram, _columns(blocks, desc)


def _ridge_fit(p, y, lam):
    # The pipeline's right-hand sides and solve for one sample: the (K, n)
    # betas of every threshold y_j.
    order, first, _ = _tie_groups(y[None])
    return _primal(p[None], None, order, first, lam, _block_rows(p.shape[1]))[0]


def _fit(x, y, lam, degree=2):
    p = design_matrix(minmax_scale(x), degree)
    return p, _ridge_fit(p, y, lam)


# ---------------------------------------------------------------------------
# basis_index_set / design_matrix


def test_basis_two_covariates_degree_two():
    exps = basis_index_set(2, 2)
    assert [tuple(e) for e in exps] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]
    assert exps.shape == (6, 2)
    assert exps.dtype == np.int64


def test_basis_ordering_is_degree_then_lexicographic():
    for d, degree in [(1, 4), (2, 5), (3, 3), (4, 3), (6, 2), (8, 2)]:
        exps = [tuple(int(v) for v in e) for e in basis_index_set(d, degree)]
        assert exps == sorted(exps, key=lambda e: (sum(e), e)), (d, degree)
        assert len(exps) == len(set(exps)) == math.comb(d + degree, degree)
        assert max(map(sum, exps)) == degree


def test_basis_size_matches_binomial():
    for d, degree in [(1, 0), (1, 5), (4, 2), (6, 2), (8, 3)]:
        exps = basis_index_set(d, degree)
        assert exps.shape == (math.comb(d + degree, degree), d)
        assert exps.max() == degree


def test_basis_degree_zero_is_constant_only():
    exps = basis_index_set(5, 0)
    assert exps.shape == (1, 5)
    assert tuple(exps[0]) == (0, 0, 0, 0, 0)


def test_basis_cap_enforced():
    # C(142, 2) = 10011 just exceeds the cap of 10000.
    assert BASIS_CAP == 10_000
    assert basis_index_set(139, 2).shape == (math.comb(141, 2), 139)
    with pytest.raises(InputError, match="^basis would have 10011 functions, above the cap of 10000; lower the degree$"):
        basis_index_set(140, 2)
    with pytest.raises(InputError):
        basis_index_set(0, 2)
    with pytest.raises(InputError):
        basis_index_set(2, -1)


def test_basis_is_cached_and_read_only():
    exps = basis_index_set(6, 2)
    assert basis_index_set(6, 2) is exps
    with pytest.raises(ValueError):
        exps[0, 0] = 1
    # Errors are not cached: a bad request raises every time.
    for _ in range(2):
        with pytest.raises(InputError, match="^basis would have 10011 functions, above the cap of 10000; lower the degree$"):
            basis_index_set(140, 2)


def test_design_matrix_hand_row():
    row = design_matrix(np.array([[0.5, 1.0]]), 2)[0]
    np.testing.assert_array_equal(row, [1.0, 1.0, 0.5, 1.0, 0.5, 0.25])


def test_design_matrix_zero_row_uses_zero_power_convention():
    row = design_matrix(np.array([[0.0, 0.0]]), 2)[0]
    np.testing.assert_array_equal(row, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_design_matrix_against_naive_powers():
    rng = np.random.default_rng(41)
    x = rng.uniform(size=(25, 3))
    exps = basis_index_set(3, 3)
    p = design_matrix(x, 3)
    naive = np.empty_like(p)
    for k, e in enumerate(exps):
        naive[:, k] = np.prod(x ** np.asarray(e)[None, :], axis=1)
    np.testing.assert_allclose(p, naive, rtol=1e-13)


def _long_double_design(x, exps):
    # Every monomial as a product of powers evaluated in extended precision.
    return np.prod(x.astype(np.longdouble)[:, None, :] ** exps, axis=-1)


def test_design_matrix_against_long_double_powers():
    rng = np.random.default_rng(42)
    for d in range(1, 9):
        x = rng.uniform(-2.0, 2.0, size=(40, d))
        x[0] = 0.0
        for degree in range(6):
            exps = basis_index_set(d, degree)
            want = _long_double_design(x, exps)
            got = design_matrix(x, degree)
            err = np.abs(got - want) / np.where(want == 0, 1, np.abs(want))
            assert err.max() <= 1e-15, (d, degree, float(err.max()))


def test_product_plan_parents_precede_children():
    for d in range(1, 9):
        for degree in range(6):
            exps, plan = _product_plan(d, degree)
            assert exps is basis_index_set(d, degree)
            assert len(plan) == d * degree
            # The runs cover rows 1 .. K - 1 in order.
            assert [run[0] for run in plan] + [len(exps)] == [1] + [run[1] for run in plan]
            for lo, hi, parent, var in plan:
                assert parent + hi - lo <= lo
                unit = np.eye(d, dtype=np.int64)[var]
                np.testing.assert_array_equal(exps[lo:hi], exps[parent : parent + hi - lo] + unit)
                assert (exps[lo:hi, :var] == 0).all()


@pytest.mark.parametrize("rows", [1, 7, None])
def test_design_matrix_bits_do_not_depend_on_row_blocks(monkeypatch, rows):
    rng = np.random.default_rng(43)
    xs = rng.uniform(size=(3, 50, 4))
    want = design_matrix(xs, 3)
    monkeypatch.setattr(ridge_series, "_block_rows", lambda k: rows or 150)
    got = design_matrix(xs, 3)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[1], design_matrix(xs[1], 3))


# ---------------------------------------------------------------------------
# ridge solve


def test_constant_basis_closed_form():
    # With only the constant column, each threshold solve is scalar:
    # (n + n*lam) * beta = #(y >= t), so beta = frac / (1 + lam).
    x = np.array([[0.1], [0.2], [0.3], [0.4]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    p = design_matrix(x, 0)
    betas = _ridge_fit(p, y, 0.25)
    assert betas.shape == (1, 4)
    np.testing.assert_allclose(betas[0], np.array([1.0, 0.75, 0.5, 0.25]) / 1.25)
    # The fitted matrix column at the smallest threshold is 1/(1+lam).
    g = p @ betas
    np.testing.assert_allclose(g[:, 0], 0.8)


def test_residual_identity_against_explicit_indicators():
    # The solver never forms 1(y_i >= y_j) directly; rebuilding it here and
    # checking the normal equations validates the suffix-sum shortcut. The
    # last case, degree 3 with lambda = n**-2 at d = 6 (K = 84, condition
    # number ~2e5), is the worst-conditioned system the pipeline meets in
    # the tests; there the solve must hold the residual to 1e-12.
    rng = np.random.default_rng(42)
    cases = [(40, 2, 2, 1e-3, False, 1e-8), (40, 2, 2, 1e-3, True, 1e-8),
             (300, 6, 3, default_lambda(300, 2.0), False, 1e-12)]
    for n, d, degree, lam, tied, bound in cases:
        x = rng.standard_normal((n, d))
        y = np.floor(4 * rng.uniform(size=n)) if tied else rng.standard_normal(n)
        p, betas = _fit(x, y, lam=lam, degree=degree)
        ind = (y[:, None] >= y[None, :]).astype(np.float64)  # ind[i, j] = 1(y_i >= y_j)
        rhs = p.T @ ind
        gram = p.T @ p + n * lam * np.eye(p.shape[1])
        resid = gram @ betas - rhs
        rel = np.linalg.norm(resid) / np.linalg.norm(rhs)
        assert rel <= bound


def test_stacked_solve_matches_each_system_alone():
    # The bootstrap solves (c, K, K) stacks; each system must get the bits
    # it gets alone, at the benchmark's chunk shapes and at K = 84, in
    # blocks of 7 thresholds or in one, with design rows built per block
    # from the covariates or held whole.
    rng = np.random.default_rng(47)
    for c, m, d, degree in ((41, 17, 6, 2), (11, 54, 6, 2), (3, 300, 6, 3)):
        xs = minmax_scale(rng.uniform(size=(c, m, d)))
        y = np.round(rng.standard_normal((c, m)), 1)
        p = design_matrix(xs, degree)
        lam = default_lambda(m)
        order, first, _ = _tie_groups(y)
        for block in (7, _block_rows(p.shape[-1])):
            stacked = _primal(xs, degree, order, first, lam, block)
            np.testing.assert_array_equal(stacked, _primal(p, None, order, first, lam, block))
            for i in range(c):
                order_i, first_i, _ = _tie_groups(y[i][None])
                alone = _primal(xs[i][None], degree, order_i, first_i, lam, block)
                np.testing.assert_array_equal(stacked[i], alone[0])


def test_near_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(43)
    n = 60
    x = rng.uniform(size=(n, 2))
    y = rng.standard_normal(n)
    p, betas = _fit(x, y, lam=1e-10)
    fitted = p @ betas
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
        _, betas = _fit(x, y, lam)
        norms.append(np.linalg.norm(betas, axis=0))
    for a, b in zip(norms, norms[1:]):
        assert np.all(a >= b - 1e-10)
    # Very large penalties drive every coefficient toward zero.
    _, heavy = _fit(x, y, 1e8)
    assert np.abs(heavy).max() < 1e-5


def test_tied_thresholds_share_solutions():
    # Equal responses define the same indicator, hence identical columns.
    rng = np.random.default_rng(45)
    x = rng.standard_normal((30, 2))
    y = np.repeat(np.arange(10.0), 3)
    _, betas = _fit(x, y, lam=0.01)
    for j in range(0, 30, 3):
        np.testing.assert_array_equal(betas[:, j], betas[:, j + 1])
        np.testing.assert_array_equal(betas[:, j], betas[:, j + 2])


def test_tie_group_positions_match_a_binary_search():
    # _threshold_rhs takes the first sorted index of each tie group from the
    # sort; a binary search of the sorted y gives the same right-hand sides
    # bit for bit, on continuous, 7-level and constant responses, whose tie
    # groups straddle the edges of blocks of 64 thresholds.
    rng = np.random.default_rng(31)
    p = design_matrix(rng.uniform(size=(400, 3)), 2)
    for y in (rng.standard_normal(400), rng.integers(0, 7, 400).astype(float), np.full(400, 1.5)):
        order = np.argsort(y, kind="stable")
        suffix = np.cumsum(p[order][::-1], axis=0)[::-1]
        pos = np.searchsorted(y[order], y, side="left")
        gram, got = _rhs(p[None], *_tie_groups(y[None])[:2], 64)
        np.testing.assert_array_equal(got[0], suffix[pos].T)
        np.testing.assert_allclose(gram[0], p.T @ p, rtol=1e-13)


def test_ghat_matrix_permutation_equivariance():
    rng = np.random.default_rng(46)
    n = 35
    x = rng.uniform(size=(n, 2))
    y = rng.standard_normal(n)
    p = design_matrix(x, 2)
    g = p @ _ridge_fit(p, y, 0.05)
    perm = rng.permutation(n)
    pp = design_matrix(x[perm], 2)
    gp = pp @ _ridge_fit(pp, y[perm], 0.05)
    np.testing.assert_allclose(gp, g[np.ix_(perm, perm)], atol=1e-9)


def test_fit_validation():
    for lam in (0.0, -1.0):
        with pytest.raises(InputError, match="ridge parameter must be positive"):
            _invert_shifted(np.full((1, 1), 5.0), 5, lam)


# ---------------------------------------------------------------------------
# the dual m x m system of subsamples smaller than the basis


def _dual_case(m, d, degree, kind, seed):
    # One (1, m, K) design stack, its responses and their tie groups.
    # "repeated" draws the rows, responses included, with replacement from
    # m // 2 + 1 rows, as a bootstrap subsample does; "tied" puts the
    # responses on 4 levels.
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(m, d))
    y = rng.integers(0, 4, m).astype(np.float64) if kind == "tied" else rng.standard_normal(m)
    if kind == "repeated":
        idx = rng.integers(0, m // 2 + 1, m)
        x, y = x[idx], y[idx]
    p = design_matrix(minmax_scale(x), degree)[None]
    return p, y, _tie_groups(y[None])


def _assert_dual_matches_primal(m, d, degree, kind, seed):
    # The fitted curves g of both paths against the ridge fit as an
    # augmented least-squares problem [P; sqrt(m*lam) I] beta = [Y; 0],
    # solved by SVD, whose error grows with the square root of the
    # condition number, not with it. The dual path gives g = Y - m*lam*Z
    # itself, the primal g = P @ betas. At K = 286, m = 285 the dual's own
    # rounding reaches 5.9e-13 of max|g|, the primal's 1.4e-13.
    p, y, (order, first, ranks) = _dual_case(m, d, degree, kind, seed)
    k = p.shape[-1]
    assert m < k
    lam = default_lambda(m)
    ind, z = _dual_solve(p, first, ranks, lam)
    dual = (ind - m * lam * z)[0]
    primal = p[0] @ _primal(p, None, order, first, lam, 7)[0]  # K x K
    want_ind = (y[:, None] >= y[None, :]).astype(np.float64)  # ind[i, j] = 1(y_i >= y_j)
    np.testing.assert_array_equal(ind[0], want_ind)
    aug = np.vstack([p[0], math.sqrt(m * lam) * np.eye(k)])
    want = p[0] @ np.linalg.lstsq(aug, np.vstack([want_ind, np.zeros((k, m))]), rcond=None)[0]
    scale = np.abs(want).max()
    assert dual.shape == primal.shape == (m, m)
    assert np.abs(dual - want).max() <= 1e-12 * scale
    assert np.abs(primal - want).max() <= 2e-12 * scale


if given is not None:

    # Degree 0 has K = 1, so no subsample is smaller than its basis.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.integers(1, 10),
        st.integers(1, 3),
        st.data(),
        st.sampled_from(("distinct", "tied", "repeated")),
        st.integers(0, 2**32 - 1),
    )
    def test_dual_betas_match_the_primal_drawn(d, degree, data, kind, seed):
        k = math.comb(d + degree, degree)
        assume(k > 2)
        m = data.draw(st.integers(2, k - 1), label="m")
        _assert_dual_matches_primal(m, d, degree, kind, seed)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_dual_betas_match_the_primal_drawn():
        pass


@pytest.mark.parametrize("d, degree", [(1, 2), (6, 2), (8, 2), (10, 3)])
@pytest.mark.parametrize("kind", ["distinct", "tied", "repeated"])
def test_dual_betas_match_the_primal_at_both_ends(d, degree, kind):
    k = math.comb(d + degree, degree)
    for m in (2, k - 1):
        _assert_dual_matches_primal(m, d, degree, kind, seed=k + m)


def test_stacked_dual_solve_matches_each_system_alone():
    # The bootstrap's m = 17 chunks at K = 28, and K = 45 at m = 24: each
    # subsample gets the bits it gets alone, as estimate() fits it.
    rng = np.random.default_rng(48)
    for c, m, d, degree in ((41, 17, 6, 2), (16, 24, 8, 2)):
        x = rng.uniform(size=(c, m, d))
        y = np.round(rng.standard_normal((c, m)), 1)
        p = design_matrix(minmax_scale(x), degree)
        assert m < p.shape[-1]
        lam = default_lambda(m)
        _, first, ranks = _tie_groups(y)
        ind, z = _dual_solve(p, first, ranks, lam)
        for i in range(c):
            _, first_i, ranks_i = _tie_groups(y[i][None])
            ind_i, z_i = _dual_solve(p[i][None], first_i, ranks_i, lam)
            np.testing.assert_array_equal(ind[i], ind_i[0])
            np.testing.assert_array_equal(z[i], z_i[0])


def test_solver_switches_to_the_primal_at_m_equal_to_k(monkeypatch):
    # m = K - 1 inverts (m, m) dual matrices and never builds the primal
    # system; m = K solves the K x K primal system, its design rows built
    # once as one block, and reads l_hat from its betas, bit for bit.
    inverted, primal_calls = [], []
    inv, solve = np.linalg.inv, bias_correction._threshold_betas

    def spy_inv(a):
        inverted.append(a.shape)
        return inv(a)

    def spy_solve(*args):
        primal_calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "inv", spy_inv)
    monkeypatch.setattr(bias_correction, "_threshold_betas", spy_solve)
    rng = np.random.default_rng(49)
    for d, degree in ((2, 2), (6, 2), (3, 3)):
        k = math.comb(d + degree, degree)
        for m in (k - 1, k):
            inverted.clear()
            primal_calls.clear()
            x = rng.uniform(size=(3, m, d))
            y = rng.standard_normal((3, m))
            order, first, ranks = _tie_groups(y)
            nn = rng.integers(0, m - 1, size=(3, m))
            nn[nn >= np.arange(m)] += 1  # any j != i is a valid neighbor map
            lam = default_lambda(m)
            l_hat = _bias_term(x, degree, order, first, ranks, lam, nn)
            assert l_hat.shape == (3,)
            if m < k:
                assert inverted == [(3, m, m)] and primal_calls == []
            else:
                assert inverted == [(3, k, k)] and primal_calls == [(3, m, k)]
                want = _primal_l_hat(x, degree, order, first, lam, nn, _block_rows(k))
                np.testing.assert_array_equal(l_hat, want)


def test_a_row_whose_neighbor_is_its_copy_has_no_indicator_difference():
    # A subsample that draws row 0 twice: the copy is row 0's nearest
    # neighbor, so Y[nn] - Y is exactly 0 on row 0, and only the rounding
    # of m*lam*(Z[nn] - Z), which is 0 in exact arithmetic, is left there.
    rng = np.random.default_rng(51)
    m, d = 17, 6
    x = rng.uniform(size=(m, d))
    y = rng.standard_normal(m)
    x[5], y[5] = x[0], y[0]
    xs = minmax_scale(x[None])
    nn = _search_stack(xs)
    assert nn[0, 0] == 5 and nn[0, 5] == 0
    p = design_matrix(xs, 2)
    _, first, ranks = _tie_groups(y[None])
    ind, z = _dual_solve(p, first, ranks, default_lambda(m))
    dy = _neighbor_diff(ind, nn)
    assert not dy[0, 0].any() and not dy[0, 5].any()
    assert dy[0].any(axis=-1).sum() == m - 2
    assert np.abs(_neighbor_diff(z, nn)[0, 0]).max() <= 1e-12 * np.abs(z).max()


def test_dual_path_keeps_the_primal_checks():
    x = np.random.default_rng(50).uniform(size=(1, 5, 6))
    y = np.arange(5.0)[None]
    p = design_matrix(x, 2)  # m = 5 < K = 28
    nn = np.array([[1, 0, 1, 2, 3]])
    for lam in (0.0, -1.0):
        with pytest.raises(InputError, match="ridge parameter must be positive"):
            _bias_term(x, 2, *_tie_groups(y), lam, nn)
    with pytest.raises(InputError, match="Gram matrix overflows"):
        _bias_term(p * 1e200, None, *_tie_groups(y), 0.1, nn)
