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
every other product in the package uses, so a process starts one BLAS
thread pool, not two that compete for the cores. Inside the pipeline that
pool stays idle: products with K of a few dozen are too small to split, so
the pipeline runs BLAS on the calling thread
(:func:`nncorr._threads.single_blas_thread`). The bits do not depend on
the BLAS thread count.

Everything here is a plain array, for a stack of samples at once:
:func:`basis_index_set` gives the (K, d) exponent array that
:func:`design_matrix` takes. Entry (i, j) of the fitted curves g estimates
P(Y >= y_j | X = x_i). This is a linear probability model: entries may
fall outside [0, 1], and nothing clamps them. The two paths leave g in
different forms. With n >= K, :func:`_ridge_solve` on the suffix-sum
right-hand sides of :func:`_threshold_rhs` gives the (K, n) coefficients
``betas``, column j solving (P'P + n*lam*I) beta = P' 1(y >= y_j), and g =
P @ betas stays in factored form. With n < K, :func:`_dual_solve` gives
the n x n indicators Y and dual solution Z, and g = Y - n*lam*Z is n x n.
The bias term in :mod:`nncorr.bias_correction` reads either form directly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .dataset import _as_matrix
from .errors import InputError

# Largest basis size K that basis_index_set builds.
BASIS_CAP = 10_000


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


def design_matrix(xs: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Evaluate every basis monomial at every row: entry (i, k) = xs_i^alpha_k.

    ``exponents`` is the (K, d) array of :func:`basis_index_set`. The 0^0 =
    1 convention applies, so the constant column is all ones even at the
    origin. A stack of matrices, shape (..., n, d), gives a stack of design
    matrices, shape (..., n, K).
    """
    arr = _as_matrix(xs, stacked=True)
    k, d = exponents.shape
    if arr.shape[-1] != d:
        raise InputError(f"matrix has {arr.shape[-1]} columns but basis expects {d}")
    # One power table per covariate, then gather-and-multiply per monomial;
    # much cheaper than broadcasting x ** E over an (n, K, d) block.
    p = np.ones(arr.shape[:-1] + (k,), dtype=np.float64)
    powers = np.arange(exponents.max() + 1)
    for m in range(d):
        col_powers = arr[..., m, None] ** powers
        p *= col_powers[..., exponents[:, m]]
    return p


def _solve_shifted(a: np.ndarray, rhs: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Solve (a + n*lam*I) Z = rhs for a stack of unshifted Gram matrices ``a``.

    Both ``a`` and ``rhs`` are overwritten. In :func:`_ridge_solve` and
    :func:`_dual_solve`, ``rhs`` has at least as many columns as ``a`` has
    rows, and the shift keeps the matrix positive definite, so one inverse
    and matrix products (GEMM) over all columns cost less than triangular
    solves; ``np.linalg.solve`` would also copy ``rhs`` in and out. The
    inverse alone leaves a residual near eps * cond * |rhs| (a few 1e-12
    relative at K = 84, lambda = n**-2), so one step of iterative refinement
    with the same inverse follows. Every product is NumPy's, computed per
    matrix, so a stack gives each system the bits it gets alone.
    """
    if not lam > 0.0:
        raise InputError(f"ridge parameter must be positive, got {lam}")
    if not np.isfinite(a).all():
        raise InputError("the ridge Gram matrix overflows; rescale x or lower the degree")
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] += n * lam
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        # The overflow check above passed, yet a finite matrix can still be
        # numerically singular when the covariates are so large that the
        # shift vanishes beside its entries (unscaled columns near 1e20).
        raise InputError(
            f"the ridge matrix could not be inverted: {exc}; rescale x or lower the degree"
        ) from exc
    z = inv @ rhs
    rhs -= a @ z
    z += inv @ rhs
    return z


def _ridge_solve(p: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve the primal system (P'P + n*lam*I) B = rhs through the K x K inverse.

    Takes (n, K) and (K, J), or stacks (..., n, K) and (..., K, J); ``rhs``
    is overwritten. The pipeline takes this path when n >= K, so the J = n
    right-hand sides share one K x K inverse: O(K^3) plus O(n K^2).
    """
    n = p.shape[-2]
    with np.errstate(over="ignore"):
        gram = np.swapaxes(p, -1, -2) @ p
    return _solve_shifted(gram, rhs, n, lam)


def _threshold_rhs(p: np.ndarray, order: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Right-hand sides P' 1(y >= y_j) of every threshold of a (c, m, K) stack.

    ``order`` and ``first`` are those of :func:`nncorr.dataset._tie_groups`.
    The rows of P are gathered in descending response order and summed
    cumulatively, so row L - 1 of the sums is the sum over the L largest
    responses; threshold j, with L = m - first_j responses at or above it,
    takes that row. O(mK) per matrix, with no m x m indicator. Returns a
    (c, K, m) view of a (c, m, K) array, each matrix column-major.
    """
    c, m, k = p.shape
    # Rank-major (m, c, K) layout: each step of the running sum adds one
    # contiguous (c, K) block, in the order of a cumsum over each matrix.
    desc = order.reshape(c, m)[:, ::-1].T.ravel()
    acc = p.reshape(c * m, k)[desc].reshape(m, c * k)
    np.add.accumulate(acc, axis=0, out=acc)
    pick = (m - 1 - first) * c + np.arange(c)[:, None]
    return np.swapaxes(acc.reshape(m * c, k)[pick.ravel()].reshape(c, m, k), -1, -2)


def _dual_solve(
    p: np.ndarray, first: np.ndarray, ranks: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """The indicators Y and the dual solution Z of every threshold of a (c, m, K) stack.

    ``first`` and ``ranks`` are those of :func:`nncorr.dataset._tie_groups`.
    Y[i, j] = 1(y_i >= y_j) = 1(ranks_i > first_j), and Z solves (PP' +
    m*lam*I) Z = Y, both (c, m, m). Since (P'P + m*lam*I)^-1 P' = P' (PP' +
    m*lam*I)^-1, the primal coefficients are betas = P' Z, and the fitted
    curves are g = P betas = PP' Z = Y - m*lam*Z without them. The solve
    makes the checks of :func:`_ridge_solve` with the same messages.
    """
    with np.errstate(over="ignore"):
        outer = p @ np.swapaxes(p, -1, -2)
    ind = (ranks[..., :, None] > first[..., None, :]).astype(np.float64)
    return ind, _solve_shifted(outer, ind.copy(), p.shape[-2], lam)
