"""Polynomial-basis ridge least squares for conditional survival estimation.

For every threshold t in the observed responses, the indicator 1(Y >= t) is
projected onto a total-degree power basis with an L2 penalty. With n rows
and K basis functions the fit takes the smaller of two equivalent systems,
chosen by shape alone in :func:`nncorr.bias_correction._bias_term`. When
n >= K, the shifted K x K Gram matrix P'P + n*lam*I does not depend on t,
so one inverse serves all n right-hand sides: O(K^3) once plus O(n K^2)
matrix products. When n < K, as in a bootstrap subsample of size
floor(sqrt(n)), the n x n dual matrix PP' + n*lam*I serves them instead:
O(n^3) plus O(n^2 K). Both run on NumPy's own LAPACK and BLAS, the library
every other product in the package uses. SciPy's copy of OpenBLAS is loaded
too, since ``scipy.spatial`` imports ``scipy.linalg``, and starts a pool of
its own, but nothing in the package calls it. NumPy's pool keeps the
thread count that NumPy and its environment variables give it; the bits
do not depend on that count (``tests/test_cli.py`` runs the command line
at 1 and 4 BLAS threads and at the default pool).

Everything here is a plain array, for a stack of samples at once:
:func:`design_matrix` evaluates the (K, d) exponents of
:func:`basis_index_set` at every row. Entry (i, j) of the fitted curves g
estimates P(Y >= y_j | X = x_i). This is a linear probability model: entries may
fall outside [0, 1], and nothing clamps them. The two paths leave g in
different forms. With n >= K, the rows are taken in descending response
order (:func:`_descending`) and the design matrix P never exists whole:
:func:`_threshold_rhs` builds it one block of rows at a time from the
covariates, once for the Gram matrix P'P and once more for the suffix-sum
right-hand sides P' 1(y >= y_j), and :func:`_threshold_betas` gives the
(K, n) coefficients ``betas``, column j solving (P'P + n*lam*I) beta = P'
1(y >= y_j), one block at a time with the block's rows. So g = P @ betas
stays in factored form, and neither P nor the coefficients exist in full.
With n < K, :func:`_dual_solve` gives the n x n indicators Y and dual
solution Z from the whole (n, K) design matrix, and g = Y - n*lam*Z is n x
n. The bias term in :mod:`nncorr.bias_correction` reads either form
directly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import InputError

# Largest basis size K that basis_index_set builds.
BASIS_CAP = 10_000

# Byte budget of one block of work. Here it sizes the row blocks of the
# design matrix and of the primal fit, (block, K) floats a sample
# (:func:`_block_rows`); the bias term sizes the chunks of its final sum
# with it, and the bootstrap its chunks of replicates. The design matrix
# keeps its bits at any budget, and a replicate at any chunk size; the
# primal fit sums its Gram matrix and bias term over its row blocks, so
# there the budget moves ``l_hat`` by rounding.
_CHUNK_BYTES = 256 * 1024


def _block_rows(k: int) -> int:
    """Rows of K floats in one block of :data:`_CHUNK_BYTES`, at least one."""
    return max(1, _CHUNK_BYTES // (8 * k))


@functools.lru_cache(maxsize=None)
def basis_index_set(d: int, degree: int) -> np.ndarray:
    """Multi-indices of all monomials with total degree up to ``degree``.

    A (K, d) integer array in graded-lexicographic order: sorted by total
    degree, then lexicographically, with the constant term first. K =
    C(d + degree, degree), at most ``BASIS_CAP``. Cached per ``(d,
    degree)``, since every bootstrap refit asks for the same basis, so the
    array is read-only. Invalid arguments raise on every call, since
    exceptions are not cached.
    """
    if d < 1:
        raise InputError(f"need d >= 1, got {d}")
    if degree < 0:
        raise InputError(f"need degree >= 0, got {degree}")
    k = math.comb(d + degree, degree)
    if k > BASIS_CAP:
        raise InputError(
            f"basis would have {k} functions, above the cap of {BASIS_CAP}; lower the degree"
        )
    exps = []
    for total in range(degree + 1):
        # Multisets of `total` variables, in lexicographic order, count into
        # exponent vectors in descending lexicographic order.
        combos = itertools.combinations_with_replacement(range(d), total)
        exps.extend(reversed([np.bincount(c, minlength=d) for c in combos]))
    exponents = np.asarray(exps, dtype=np.int64)
    assert exponents.shape == (k, d)
    exponents.setflags(write=False)
    return exponents


@functools.lru_cache(maxsize=None)
def _product_plan(d: int, degree: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """``basis_index_set(d, degree)`` and how :func:`design_matrix` builds its monomials.

    Monomial i > 0 is its parent times one covariate: the parent is
    exponent row i with one power of its first nonzero variable removed,
    so it has a lower degree and comes earlier in graded order. Within a
    degree, the monomials whose first nonzero variable is v are contiguous
    in lexicographic order, and so are their parents, in the same order,
    in the degree below. So the plan is a tuple of runs ``(lo, hi,
    parent_lo, var)``: rows ``lo:hi`` are rows ``parent_lo:parent_lo + hi -
    lo`` times covariate ``var``, d runs per degree. Cached per ``(d,
    degree)`` like the basis itself.
    """
    basis = basis_index_set(d, degree)
    exps = basis.tolist()
    index = {tuple(e): i for i, e in enumerate(exps)}
    runs: list[list[int]] = []
    for i, e in enumerate(exps[1:], start=1):
        var = next(j for j, power in enumerate(e) if power)
        e[var] -= 1
        parent = index[tuple(e)]
        last = runs[-1] if runs else None
        # A run never reads its own rows: its parents end before it starts.
        if last and last[3] == var and last[2] + i - last[0] == parent < last[0]:
            last[1] = i + 1
        else:
            runs.append([i, i + 1, parent, var])
    return basis, tuple(tuple(run) for run in runs)


def design_matrix(xs: np.ndarray, degree: int) -> np.ndarray:
    """Every monomial of total degree up to ``degree`` at every row of a float ``xs``.

    Entry (i, k) = xs_i^alpha_k, alpha_k row k of ``basis_index_set(d,
    degree)``. The constant column is all ones, even at the origin (0^0 =
    1). Every other column is an earlier column times one covariate
    (:func:`_product_plan`), so an entry of total degree t is a product of
    t covariate values, rounded t - 1 times, with no call to ``pow``. A
    stack of matrices, shape (..., n, d), gives a stack of design matrices,
    shape (..., n, K). The entries of ``xs`` are not checked.
    """
    d = xs.shape[-1]
    basis, plan = _product_plan(d, degree)
    k = len(basis)
    # Blocks of rows, each built monomial-major in a C-ordered (K, block)
    # buffer, so every multiply runs over contiguous rows, then written into
    # P; beyond P, memory stays at one block. Products of unscaled x can
    # overflow to inf, which the pipeline refuses with an InputError.
    rows = xs.reshape(-1, d)
    n = rows.shape[0]
    p = np.empty((n, k))
    step = _block_rows(k)
    buf = np.empty((k, min(step, n)))
    buf[0] = 1.0
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            cols = np.ascontiguousarray(rows[lo:hi].T)
            block = buf[:, : hi - lo]
            for a, b, parent, var in plan:
                np.multiply(block[parent : parent + b - a], cols[var], out=block[a:b])
            p[lo:hi] = block.T
    return p.reshape(xs.shape[:-1] + (k,))


def _invert_shifted(a: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Shift a stack of Gram matrices ``a`` in place to a + n*lam*I and invert it.

    The shift keeps the matrix positive definite. Every system here has,
    in all, at least as many right-hand sides as rows, so one inverse and
    matrix products (GEMM, :func:`_refined_apply`) cost less than
    triangular solves. A zero or negative penalty, an overflowing Gram matrix and a
    singular one each raise an :class:`InputError`.
    """
    if not lam > 0.0:
        raise InputError(f"ridge parameter must be positive, got {lam}")
    if not np.isfinite(a).all():
        raise InputError("the ridge Gram matrix overflows; rescale x or lower the degree")
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] += n * lam
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        # The overflow check above passed, yet a finite matrix can still be
        # numerically singular when the covariates are so large that the
        # shift vanishes beside its entries (unscaled columns near 1e20).
        raise InputError(
            f"the ridge matrix could not be inverted: {exc}; rescale x or lower the degree"
        ) from exc


def _refined_apply(a: np.ndarray, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a Z = rhs with the inverse of :func:`_invert_shifted`; ``rhs`` is overwritten.

    The inverse alone leaves a residual near eps * cond * |rhs| (a few
    1e-12 relative at K = 84, lambda = n**-2), so one step of iterative
    refinement with the same inverse follows. Every product is NumPy's,
    computed per matrix, so a stack gives each system the bits it gets
    alone.
    """
    z = inv @ rhs
    rhs -= a @ z
    z += inv @ rhs
    return z


def _design_rows(x: np.ndarray, degree: int | None) -> np.ndarray:
    """``design_matrix(x, degree)``, or ``x`` itself when ``degree`` is None.

    The primal path builds the design rows of each block from its
    covariate rows; ``degree=None`` marks a stack that holds its design
    rows already, as one block of the pipeline does.
    """
    return x if degree is None else design_matrix(x, degree)


def _descending(order: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's rows of a (c, m) stack in descending response order, and their suffix rows.

    ``order`` and ``first`` are those of :func:`nncorr.dataset._tie_groups`.
    Returns ``(desc, need)``, both (c, m): ``desc[b, t]`` the flat index,
    into the stack's c * m rows, of sample b's row at position t, and
    ``need[b, t]`` the last position at or above that row's response, so
    the running sum of positions 0 .. ``need[b, t]`` sums the rows with
    responses at or above it. ``need[b, t] >= t``, with equality unless
    the next position ties the response.
    """
    c, m = first.shape
    desc = order.reshape(c, m)[:, ::-1]
    return desc, m - 1 - first.ravel()[desc]


def _running_sums(pb: np.ndarray, carry: np.ndarray | None):
    """The running sum over a (c, b, K) block of rows, continued from ``carry``.

    Returns ``(sums, carry)``: the C-ordered (c, K, b) ``sums``, column t
    the sum of every row up to and including row t of the block, and the
    new (c, K) carry, its last column. Each step adds one row to the sum
    before it, in row order, so the sums carry the same bits whatever the
    block length.
    """
    sums = np.swapaxes(pb, -1, -2).copy()
    if carry is not None:
        sums[..., 0] += carry
    np.add.accumulate(sums, axis=-1, out=sums)
    return sums, sums[..., -1].copy()


def _threshold_rhs(xd: np.ndarray, degree: int | None, need: np.ndarray, block: int):
    """Gram matrices P'P and right-hand sides P' 1(y >= y_j) of a (c, m, .) stack.

    The rows of ``xd`` are in descending response order and ``need`` is
    that of :func:`_descending`: P is ``_design_rows(xd, degree)``, built
    one block of ``block`` rows at a time, never whole. Threshold t takes
    running-sum row ``need[:, t]``. O(mK^2) for the Gram matrices and O(mK)
    for the sums, with no m x m indicator.

    Returns ``(gram, blocks)``. A first pass over the blocks sums the
    (c, K, K) ``gram``; when a tie group runs past the end of a block, it
    also keeps the running-sum row at that group's last position, which
    every threshold of the group takes. ``blocks`` is the second pass, a
    generator of ``(lo, hi, pb, rhs)`` per block: ``pb`` the (c, hi - lo,
    K) design rows at positions ``lo:hi``, built once more, and ``rhs``
    their thresholds' C-ordered (c, K, hi - lo) right-hand sides.
    """
    c, m, _ = xd.shape
    bounds = [(lo, min(lo + block, m)) for lo in range(0, m, block)]
    ends = np.array([hi for _, hi in bounds])
    # The running-sum row of each block's last threshold, and whether its
    # tie group runs on into a later block.
    tails = need[:, ends - 1]
    straddle = tails >= ends
    keep = straddle.any()
    gram, comp, ahead, carry = None, 0.0, None, None
    for lo, hi in bounds:
        pb = _design_rows(xd[:, lo:hi], degree)
        with np.errstate(over="ignore", invalid="ignore"):
            part = np.swapaxes(pb, -1, -2) @ pb
            if gram is None:
                gram = part
            else:
                # Compensated (Kahan) summation of the blocks' Gram matrices,
                # so the sum's rounding does not grow with their number.
                part -= comp
                total = gram + part
                comp = (total - gram) - part
                gram = total
        if keep:
            if ahead is None:
                ahead = np.zeros((c, len(bounds), pb.shape[-1]))
            sums, carry = _running_sums(pb, carry)
            b, i = np.nonzero(straddle & (tails >= lo) & (tails < hi))
            ahead[b, i] = sums[b, :, tails[b, i] - lo]
    return gram, _rhs_blocks(xd, degree, need, bounds, ahead)


def _rhs_blocks(xd, degree, need, bounds, ahead):
    # The second pass of _threshold_rhs. With no ties in a block, each
    # threshold takes its own running sum, so the sums are the right-hand
    # sides; otherwise a tie group's thresholds take the sum at its last
    # row, past the block's end the one kept for the block.
    samples = np.arange(xd.shape[0])[:, None]
    carry = None
    for i, (lo, hi) in enumerate(bounds):
        pb = _design_rows(xd[:, lo:hi], degree)
        rhs, carry = _running_sums(pb, carry)
        rows = need[:, lo:hi] - lo
        if not (rows == np.arange(hi - lo)).all():
            if ahead is not None:
                rhs = np.concatenate([rhs, ahead[:, i, :, None]], axis=-1)
            picked = np.swapaxes(rhs, -1, -2)[samples, np.minimum(rows, hi - lo)]
            rhs = np.ascontiguousarray(np.swapaxes(picked, -1, -2))
        yield lo, hi, pb, rhs


def _threshold_betas(
    xd: np.ndarray, degree: int | None, need: np.ndarray, lam: float, block: int
):
    """Primal ridge coefficients of every threshold of a (c, m, .) stack, in blocks.

    Takes the rows as :func:`_threshold_rhs` does, inverts the shifted Gram
    matrix P'P + m*lam*I of each sample once, then yields ``(lo, hi, pb,
    betas)`` for each block of rows: ``pb`` the block's design rows and
    column t of the (c, K, hi - lo) ``betas`` the solution of (P'P +
    m*lam*I) beta = P' 1(y >= y_j) for the threshold at position lo + t.
    The pipeline takes this path when m >= K, so the m right-hand sides
    share one K x K inverse: O(K^3) plus O(m K^2), and O(block K) memory;
    the pipeline's ``block`` is :func:`_block_rows` (K).
    """
    gram, blocks = _threshold_rhs(xd, degree, need, block)
    inv = _invert_shifted(gram, xd.shape[-2], lam)
    for lo, hi, pb, rhs in blocks:
        yield lo, hi, pb, _refined_apply(gram, inv, rhs)


def _dual_solve(
    p: np.ndarray, first: np.ndarray, ranks: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """The indicators Y and the dual solution Z of every threshold of a (c, m, K) stack.

    ``first`` and ``ranks`` are those of :func:`nncorr.dataset._tie_groups`.
    Y[i, j] = 1(y_i >= y_j) = 1(ranks_i > first_j), and Z solves (PP' +
    m*lam*I) Z = Y, both (c, m, m). Since (P'P + m*lam*I)^-1 P' = P' (PP' +
    m*lam*I)^-1, the primal coefficients are betas = P' Z, and the fitted
    curves are g = P betas = PP' Z = Y - m*lam*Z without them. The solve
    makes the checks of :func:`_threshold_betas` with the same messages.
    """
    with np.errstate(over="ignore"):
        outer = p @ np.swapaxes(p, -1, -2)
    ind = (ranks[..., :, None] > first[..., None, :]).astype(np.float64)
    return ind, _refined_apply(outer, _invert_shifted(outer, p.shape[-2], lam), ind.copy())
