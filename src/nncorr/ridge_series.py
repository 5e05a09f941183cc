"""Polynomial-basis ridge least squares for conditional survival estimation.

For every threshold t in the observed responses, the indicator 1(Y >= t) is
projected onto a total-degree power basis with an L2 penalty. The shifted
Gram matrix does not depend on t, so one inverse serves all n right-hand
sides: O(K^3) once plus O(n K^2) matrix products. Both run on NumPy's own
LAPACK and BLAS, the library every other product in the package uses, so a
process starts one BLAS thread pool, not two that compete for the cores.
Inside the pipeline that pool stays idle: products with K of a few dozen
are too small to split, so the pipeline runs BLAS on the calling thread
(:func:`nncorr._threads.single_blas_thread`). The bits do not depend on the
BLAS thread count.

Everything here is a plain array: :func:`basis_index_set` gives the (K, d)
exponent array that :func:`design_matrix` takes; :func:`_threshold_rhs`
gives the right-hand sides of every threshold and :func:`_ridge_solve` the
(K, n) coefficients ``betas``, for a stack of samples at once. Column j of
``betas`` solves (P'P + n*lam*I) beta = P' 1(y >= y_j), so entry (i, j) of
g = P @ betas estimates P(Y >= y_j | X = x_i). This is a linear probability
model: entries may fall outside [0, 1], and nothing clamps them. g is left
in factored form; the bias term in :mod:`nncorr.bias_correction` reads the
factors directly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .dataset import _as_matrix
from .errors import (
    BasisSizeError,
    DimensionMismatchError,
    FactorizationError,
    InputError,
    NonFiniteInputError,
)

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
        raise BasisSizeError(
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
        raise DimensionMismatchError(
            f"matrix has {arr.shape[-1]} columns but basis expects {d}"
        )
    # One power table per covariate, then gather-and-multiply per monomial;
    # much cheaper than broadcasting x ** E over an (n, K, d) block.
    p = np.ones(arr.shape[:-1] + (k,), dtype=np.float64)
    powers = np.arange(exponents.max() + 1)
    for m in range(d):
        col_powers = arr[..., m, None] ** powers
        p *= col_powers[..., exponents[:, m]]
    return p


def _ridge_solve(p: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (P'P + n*lam*I) B = rhs with the inverse of the K x K matrix.

    Takes (n, K) and (K, J), or stacks (..., n, K) and (..., K, J); ``rhs``
    is overwritten. K is at most a few hundred, J (n, or m in the bootstrap)
    is of the order of K or larger, and the ridge shift keeps the matrix
    positive definite, so one inverse and matrix products (GEMM) over all J
    columns cost less than triangular solves; ``np.linalg.solve`` would also
    copy ``rhs`` in and out. The inverse alone leaves a residual near
    eps * cond * |rhs| (a few 1e-12 relative at K = 84, lambda = n**-2), so
    one step of iterative refinement with the same inverse follows. Every
    product is NumPy's, computed per matrix, so a stack gives each system
    the bits it gets alone.
    """
    if not lam > 0.0:
        raise InputError(f"ridge parameter must be positive, got {lam}")
    n, k = p.shape[-2:]
    with np.errstate(over="ignore"):
        gram = np.swapaxes(p, -1, -2) @ p
    if not np.isfinite(gram).all():
        raise NonFiniteInputError(
            "the ridge Gram matrix overflows; rescale x or lower the degree"
        )
    diag = np.arange(k)
    gram[..., diag, diag] += n * lam
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"the ridge matrix could not be inverted: {exc}; rescale x or lower the degree"
        ) from exc
    betas = inv @ rhs
    rhs -= gram @ betas
    betas += inv @ rhs
    return betas


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
