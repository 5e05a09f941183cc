"""Exact nearest-neighbor indices under the Euclidean metric.

:func:`build_nn` searches one (n, d) matrix with a kd-tree and
:func:`_stacked_nn` searches every matrix of a (c, m, d) stack through its
full distance matrix. Both return, for each row, the index of its nearest
other row, resolve distance ties to the smallest index and give identical
output on every input. Both refuse a matrix whose squared distances could
overflow before any distance is formed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from . import _threads
from .dataset import _as_matrix
from .errors import InsufficientRowsError, NonFiniteInputError

# Relative slack when collecting tie candidates from the tree. Far larger
# than any float rounding discrepancy, far smaller than any genuine gap.
_TIE_SLACK = 1e-9


def _check_range(x: np.ndarray) -> None:
    """Raise unless every squared distance within each matrix is finite.

    The sum of squared column ranges bounds every squared distance of a
    (..., n, d) matrix or stack, so a finite bound rules out overflow.
    """
    with np.errstate(over="ignore"):
        span = x.max(axis=-2) - x.min(axis=-2)
        bound = (span * span).sum(axis=-1)
    if not np.isfinite(bound).all():
        raise NonFiniteInputError(
            "covariate ranges are too large: squared distances overflow; rescale x"
        )


def build_nn(x) -> np.ndarray:
    """Index nn[i] != i of the nearest other row of every row of ``x``.

    A kd-tree collects, for each row, every row within its nearest distance
    (plus a relative slack); rows with more than one candidate are re-scored
    with exact squared distances, the smallest index winning ties. Duplicate
    rows are each other's neighbors.
    """
    arr = np.ascontiguousarray(_as_matrix(x))
    n = arr.shape[0]
    if n < 2:
        raise InsufficientRowsError(f"need at least 2 points, got {n}")
    _check_range(arr)
    workers = _threads.get_workers()

    tree = cKDTree(arr)
    dk, _ = tree.query(arr, k=2, workers=workers)
    # Second-smallest distance including self equals the nearest-other
    # distance whether or not duplicates are present.
    radius = dk[:, 1] * (1.0 + _TIE_SLACK)
    balls = tree.query_ball_point(arr, radius, workers=workers, return_sorted=True)

    nn = np.empty(n, dtype=np.int64)
    idx = np.arange(n)
    lens = np.fromiter((len(b) for b in balls), dtype=np.intp, count=n)

    # Generic case: the ball holds exactly {i, neighbor}.
    pair = lens == 2
    if pair.any():
        rows = idx[pair]
        pmat = np.asarray([balls[i] for i in rows], dtype=np.int64)
        nn[rows] = np.where(pmat[:, 0] == rows, pmat[:, 1], pmat[:, 0])

    # Tied or duplicate rows: the first minimizer over sorted candidates.
    for i in idx[~pair]:
        c = np.asarray([j for j in balls[i] if j != i], dtype=np.int64)
        d2 = ((arr[c] - arr[i]) ** 2).sum(axis=1)
        nn[i] = c[np.argmin(d2)]
    return nn


def _stacked_nn(xs: np.ndarray) -> np.ndarray:
    """:func:`build_nn` of every matrix in a (c, m, d) stack, shape (c, m).

    The (c, m, m) squared distances are the ones :func:`build_nn` re-scores
    ties with; the diagonal is set to inf, and argmin keeps the first
    minimizer, the smallest-index tie rule.
    """
    _check_range(xs)
    c, m, _ = xs.shape
    diff = xs[:, None, :, :] - xs[:, :, None, :]
    diff *= diff
    d2 = diff.sum(axis=-1)
    del diff
    d2.reshape(c, m * m)[:, :: m + 1] = np.inf
    return d2.argmin(axis=-1)
