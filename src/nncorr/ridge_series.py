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
different forms. With n >= K, :func:`_threshold_betas` gives the (K, n)
coefficients ``betas``, column j solving (P'P + n*lam*I) beta = P' 1(y >=
y_j), one block of thresholds at a time from the suffix-sum right-hand
sides of :func:`_threshold_rhs`, so g = P @ betas stays in factored form
and the coefficients never exist in full. With n < K, :func:`_dual_solve`
gives the n x n indicators Y and dual solution Z, and g = Y - n*lam*Z is
n x n. The bias term in :mod:`nncorr.bias_correction` reads either form
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
# design matrix and the threshold blocks of the primal fit, (block, K)
# floats a sample (:func:`_block_rows`); the bootstrap sizes its chunks of
# replicates with it. The design matrix keeps its bits at any budget, and
# a replicate at any chunk size; the primal bias term sums over its
# threshold blocks, so there the budget moves ``l_hat`` by rounding.
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


def _threshold_rhs(p: np.ndarray, order: np.ndarray, first: np.ndarray, block: int):
    """Right-hand sides P' 1(y >= y_j) of every threshold of a (c, m, K) stack, in blocks.

    ``order`` and ``first`` are those of :func:`nncorr.dataset._tie_groups`.
    The rows of P are taken in descending response order and summed
    cumulatively, so suffix row L - 1 is the sum over the L largest
    responses; threshold j, with L = m - first_j responses at or above it,
    takes that row. O(mK) per matrix, with no m x m indicator.

    Yields ``(j, rhs)`` per ``block`` thresholds, taken in descending
    response order: ``j`` the (c, b) row indices of the thresholds,
    ``rhs`` their C-ordered (c, K, b) right-hand sides. The running sum is
    extended from a carried row, with the additions of a cumsum over each
    matrix, and only as far as the block's last tie group reaches, so it
    holds the block plus the part of a tie group that straddles the
    block's end.
    """
    c, m, k = p.shape
    flat = p.reshape(c * m, k)
    desc = order.reshape(c, m)[:, ::-1]
    # Suffix row of every threshold, nondecreasing along the descending order.
    need = m - 1 - first.ravel()[desc]
    samples = np.arange(c)[:, None]
    sums = np.empty((0, c, k))  # suffix rows lo .. done - 1, rank-major
    carry, done = None, 0
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        top = int(need[:, hi - 1].max()) + 1
        sums = sums[lo - done + len(sums) :]
        if top > done:
            # Each step of the running sum adds one contiguous (c, K) block.
            new = flat[desc[:, done:top].T]
            if carry is not None:
                new[0] += carry
            np.add.accumulate(new, axis=0, out=new)
            carry = new[-1].copy()
            sums = np.concatenate([sums, new]) if len(sums) else new
            done = top
        rhs = sums[need[:, lo:hi] - lo, samples]
        yield desc[:, lo:hi] - m * samples, np.ascontiguousarray(np.swapaxes(rhs, -1, -2))


def _threshold_betas(
    p: np.ndarray, order: np.ndarray, first: np.ndarray, lam: float, block: int
):
    """Primal ridge coefficients of every threshold of a (c, m, K) stack, in blocks.

    Inverts the shifted Gram matrix P'P + m*lam*I of each sample once,
    then yields ``(j, betas)`` for each block of :func:`_threshold_rhs`:
    column t of the (c, K, b) ``betas`` solves (P'P + m*lam*I) beta = P'
    1(y >= y_j) for j = ``j[:, t]``. The pipeline takes this path when m >=
    K, so the m right-hand sides share one K x K inverse: O(K^3) plus
    O(m K^2), and O(block K) memory beyond P; the pipeline's ``block`` is
    :func:`_block_rows` (K).
    """
    with np.errstate(over="ignore"):
        a = np.swapaxes(p, -1, -2) @ p
    inv = _invert_shifted(a, p.shape[-2], lam)
    for j, rhs in _threshold_rhs(p, order, first, block):
        yield j, _refined_apply(a, inv, rhs)


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
