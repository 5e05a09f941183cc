"""Exact nearest-neighbor indices under the Euclidean metric.

:func:`build_nn` searches one (n, d) matrix with a kd-tree and
:func:`_stacked_nn` searches every matrix of a (c, m, d) stack through its
full distance matrix. Both return, for each row, the index of its nearest
other row, resolve distance ties to the smallest index and give identical
output on every input: wherever they compare distances exactly, both sum
the squared coordinate differences one column at a time, in column order.
Neither checks its input. The pipeline hands them finite covariates (a
:class:`nncorr.dataset.Sample` holds no others) whose squared distances are
finite: min-max-scaled into [0, 1]^d, or, unscaled, passed by
:func:`_check_range` in :func:`nncorr.bias_correction._stages` before any
distance is formed.

The pipeline searches through :func:`_search_stack`, which picks the kernel
by shape alone: the brute force of :func:`_stacked_nn` for matrices of at
most ``_BRUTE_MAX_M`` rows, :func:`build_nn` on each matrix above that.
Since both give the same output, the choice changes the time, not the answer.

:func:`build_nn` makes one pass over the tree for the second- and
third-nearest rows of every row (``k=[2, 3]``; the row itself is the
nearest), querying the rows in the tree's leaf order so that consecutive
queries walk the same nodes, and scattering only the neighbor indices back
to row order. A row whose nearest other row is at positive distance and
strictly nearer than the next one, by more than a relative slack, is
settled by that pass. Only the other rows (distance ties, duplicate rows)
query the tree a second time for every row within their nearest distance
plus the slack, and re-score those candidates with exact squared
distances; on continuous data no row takes that path.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from . import _threads
from .errors import InputError

# Relative slack when collecting tie candidates from the tree. Far larger
# than any float rounding discrepancy, far smaller than any genuine gap.
_TIE_SLACK = 1e-9
# Largest matrix that _search_stack searches by brute force. On scaled
# d = 6 copula samples in the bootstrap's chunks, brute force against the
# kd-tree on one worker takes 0.14 against 0.30 ms a matrix at m = 100,
# 0.40 against 0.50 ms at m = 150, 0.67 against 0.63 ms at m = 200 and 1.31
# against 0.72 ms at m = 220 (min of 60 x 10 calls of each, interleaved,
# two shared Intel Xeon cores).
_BRUTE_MAX_M = 200
# Rows per kd-tree worker: build_nn runs n // _ROWS_PER_WORKER workers, at
# least one, within the setting. On a scaled d = 6 copula sample, one worker
# against two takes 0.73 against 1.11 ms at n = 300, 2.92 against 3.04 ms
# at n = 1 000, 8.11 against 7.11 ms at n = 2 000 and 13.5 against 9.6 ms at
# n = 3 000 (min of 30 interleaved runs, two shared Intel Xeon cores).
_ROWS_PER_WORKER = 1000


def _check_range(x: np.ndarray) -> None:
    """Raise unless every squared distance within each matrix of unscaled ``x`` is finite.

    The sum of squared column ranges bounds every squared distance of a
    (..., n, d) matrix or stack, so a finite bound rules out overflow.
    """
    with np.errstate(over="ignore"):
        span = x.max(axis=-2) - x.min(axis=-2)
        bound = (span * span).sum(axis=-1)
    if not np.isfinite(bound).all():
        raise InputError("covariate ranges are too large: squared distances overflow; rescale x")


def build_nn(x) -> np.ndarray:
    """Index nn[i] != i of the nearest other row of every row of an (n, d) ``x``, n >= 2.

    A kd-tree query for the second- and third-nearest rows (``k=[2, 3]``,
    the row itself being the nearest) settles every row whose nearest other
    row is at positive distance and whose third-nearest row is farther by
    more than the slack. The rows are queried in the tree's leaf order
    (``tree.indices``) and only the neighbor indices are scattered back to
    row order; a settled row's neighbor is unique, so the order of the
    queries cannot change it. The remaining rows (ties, duplicate rows)
    collect every row within their nearest distance plus the slack and
    re-score them with exact squared distances, the smallest index winning
    ties. Duplicate rows are each other's neighbors.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    n = arr.shape[0]
    # Below _ROWS_PER_WORKER rows a second worker costs more to start than
    # it saves, so smaller searches run on the calling thread.
    workers = min(_threads.get_workers(), max(1, n // _ROWS_PER_WORKER))

    tree = cKDTree(arr)
    # Query in leaf order, so consecutive queries walk the same nodes and each
    # worker takes a spatially contiguous block, then scatter back to row order.
    perm = tree.indices
    dk, ik = tree.query(arr[perm], k=[2, 3], workers=workers)
    nn = np.empty(n, dtype=np.int64)
    # A positive nearest distance leaves the row itself as its first hit, so
    # ik[:, 0] is its neighbor; at n = 2 the third distance is inf.
    nn[perm] = ik[:, 0]
    # The second-smallest distance including self equals the nearest-other
    # distance whether or not duplicates are present.
    radius = dk[:, 0] * (1.0 + _TIE_SLACK)
    tied = ~((dk[:, 0] > 0.0) & (dk[:, 1] > radius))
    if not tied.any():
        return nn
    rows, radius = perm[tied], radius[tied]

    # Tied or duplicate rows: the first minimizer over sorted candidates,
    # squared distances summed one column at a time as in _stacked_nn.
    balls = tree.query_ball_point(arr[rows], radius, workers=workers, return_sorted=True)
    for i, ball in zip(rows, balls):
        c = np.asarray([j for j in ball if j != i], dtype=np.int64)
        sq = (arr[c] - arr[i]) ** 2
        nn[i] = c[np.argmin(np.add.accumulate(sq, axis=1)[:, -1])]
    return nn


def _stacked_nn(xs: np.ndarray) -> np.ndarray:
    """:func:`build_nn` of every matrix in a (c, m, d) stack, shape (c, m).

    The (c, m, m) squared distances are accumulated one column at a time in
    a single (c, m, m) difference buffer, so no (c, m, m, d) block is ever
    formed; they are the ones :func:`build_nn` re-scores ties with. The
    diagonal is set to inf, and argmin keeps the first minimizer, the
    smallest-index tie rule.
    """
    c, m, d = xs.shape
    d2 = np.zeros((c, m, m))
    diff = np.empty_like(d2)
    for k in range(d):
        col = xs[:, :, k]
        np.subtract(col[:, None, :], col[:, :, None], out=diff)
        diff *= diff
        d2 += diff
    d2.reshape(c, m * m)[:, :: m + 1] = np.inf
    return d2.argmin(axis=-1)


def _search_stack(xs: np.ndarray) -> np.ndarray:
    """Nearest-neighbor indices of every matrix in a (c, m, d) stack, shape (c, m).

    Brute force (:func:`_stacked_nn`) when m <= ``_BRUTE_MAX_M``, otherwise
    one kd-tree (:func:`build_nn`) per matrix.
    """
    if xs.shape[-2] <= _BRUTE_MAX_M:
        return _stacked_nn(xs)
    return np.stack([build_nn(x) for x in xs])
