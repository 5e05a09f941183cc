"""Polynomial-basis ridge least squares for conditional survival estimation.

For every threshold t in the observed responses, the indicator 1(Y >= t) is
projected onto a total-degree power basis with an L2 penalty. The shifted
Gram matrix does not depend on t, so one Cholesky factorization serves all
n right-hand sides: O(K^3) once plus O(n K^2) for the solves. The fitted
survival matrix g = P @ betas is left in factored form; the bias term in
:mod:`nncorr.bias_correction` reads the factors directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import ScaledMatrix, _as_matrix, _as_vector
from .errors import BasisSizeError, DimensionMismatchError, FactorizationError, InputError

DEFAULT_BASIS_CAP = 10_000


@dataclass(frozen=True)
class BasisSpec:
    """Multi-index set of a total-degree power basis.

    ``exponents`` is a (K, d) integer array in graded-lexicographic order:
    sorted by total degree, then lexicographically, with the constant term
    first. K = C(d + degree, degree). ``exponents`` is read-only, because
    :func:`basis_index_set` hands the same instance to every caller.
    """

    d: int
    degree: int
    exponents: np.ndarray

    @property
    def size(self) -> int:
        return self.exponents.shape[0]


@dataclass(frozen=True)
class RidgeModel:
    """Fitted ridge system shared across all response thresholds.

    Column j of ``betas`` solves (P'P + n*lam*I) beta = P' 1(y >= y_j) for
    threshold t = y_j, so entry (i, j) of ``p @ betas`` estimates
    P(Y >= y_j | X = x_i). This is a linear probability model: entries may
    fall outside [0, 1], and nothing clamps them.
    """

    p: np.ndarray
    lam: float
    betas: np.ndarray


def _compositions(total: int, parts: int):
    # All nonnegative integer vectors of given length summing to total,
    # in ascending lexicographic order.
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


@functools.lru_cache(maxsize=None)
def basis_index_set(d: int, degree: int, cap: int = DEFAULT_BASIS_CAP) -> BasisSpec:
    """Multi-indices of all monomials with total degree up to ``degree``.

    Cached per ``(d, degree, cap)``: every bootstrap refit asks for the same
    basis. Invalid arguments raise on every call, since exceptions are not
    cached.
    """
    if d < 1:
        raise InputError(f"need d >= 1, got {d}")
    if degree < 0:
        raise InputError(f"need degree >= 0, got {degree}")
    k = math.comb(d + degree, degree)
    if k > cap:
        raise BasisSizeError(
            f"basis would have {k} functions, above the cap of {cap}; lower the degree"
        )
    exps = []
    for total in range(degree + 1):
        exps.extend(_compositions(total, d))
    exponents = np.asarray(exps, dtype=np.int64)
    assert exponents.shape == (k, d)
    exponents.setflags(write=False)
    return BasisSpec(d=d, degree=degree, exponents=exponents)


def design_matrix(xs: ScaledMatrix | np.ndarray, basis: BasisSpec) -> np.ndarray:
    """Evaluate every basis monomial at every row: entry (i, k) = xs_i^alpha_k.

    The 0^0 = 1 convention applies, so the constant column is all ones even
    at the origin. A stack of matrices, shape (..., n, d), gives a stack of
    design matrices, shape (..., n, K).
    """
    arr = _as_matrix(xs.xs if isinstance(xs, ScaledMatrix) else xs, stacked=True)
    if arr.shape[-1] != basis.d:
        raise DimensionMismatchError(
            f"matrix has {arr.shape[-1]} columns but basis expects {basis.d}"
        )
    # One power table per covariate, then gather-and-multiply per monomial;
    # much cheaper than broadcasting x ** E over an (n, K, d) block.
    p = np.ones(arr.shape[:-1] + (basis.size,), dtype=np.float64)
    for m in range(basis.d):
        col_powers = arr[..., m, None] ** np.arange(basis.degree + 1)
        p *= col_powers[..., basis.exponents[:, m]]
    return p


def _ridge_solve(p: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (P'P + n*lam*I) B = rhs, one Cholesky factor for all columns.

    Takes (n, K) and (K, J), or stacks (..., n, K) and (..., K, J); ``rhs``
    may be overwritten. SciPy runs the LAPACK calls of ``cho_factor`` and
    ``cho_solve`` on every matrix in compiled code, so each solution has
    their bits (a lone 1 x 1 system is divided instead). A single system is
    solved in place and keeps the column-major layout of ``rhs``, on which
    the summation order of the bias term's einsums depends.
    """
    n, k = p.shape[-2:]
    gram = np.swapaxes(p, -1, -2) @ p
    diag = np.arange(k)
    gram[..., diag, diag] += n * lam
    try:
        return scipy.linalg.solve(gram, rhs, assume_a="pos", overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"Cholesky factorization failed: {exc}") from exc


def ridge_fit_all(p, y, lam: float) -> RidgeModel:
    """Solve the penalized projection for every threshold t = y_j at once.

    Builds P'P + n*lam*I, factorizes it once, and solves against the
    indicator responses 1(y >= y_j) for all j. The right-hand sides are
    assembled from suffix sums of the rows of P in response order, which
    costs O(nK) instead of forming the n x n indicator matrix.
    """
    pmat = _as_matrix(p, name="design matrix")
    yvec = _as_vector(y)
    n = pmat.shape[0]
    if yvec.shape[0] != n:
        raise DimensionMismatchError(f"design has {n} rows but y has {yvec.shape[0]}")
    if not lam > 0.0:
        raise InputError(f"ridge parameter must be positive, got {lam}")

    order = np.argsort(yvec, kind="stable")
    p_sorted = pmat[order]
    y_sorted = yvec[order]
    # suffix[q] = sum of p_sorted rows q..n-1 = P' 1(y >= y_sorted[q]).
    suffix = np.cumsum(p_sorted[::-1], axis=0)[::-1]
    pos = np.searchsorted(y_sorted, yvec, side="left")
    betas = _ridge_solve(pmat, suffix[pos].T, lam)
    return RidgeModel(p=pmat, lam=float(lam), betas=betas)
