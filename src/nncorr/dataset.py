"""Data ingestion, validation, rank computation, and covariate scaling.

Everything downstream consumes a :class:`Sample`; the helpers here are pure
functions on immutable inputs and are safe to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    InsufficientRowsError,
    MissingFileError,
    NoCovariateColumnsError,
    NonFiniteInputError,
    NonNumericCellError,
)


def _as_matrix(x, name: str = "x", stacked: bool = False) -> np.ndarray:
    # ``stacked`` also admits a stack of matrices, shape (..., n, d).
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 and not (stacked and arr.ndim > 2):
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} contains NaN or infinite entries")
    return arr


def _as_vector(y, name: str = "y") -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class Sample:
    """Covariate matrix (n rows, d columns) paired with a response vector.

    Raises on construction if the shapes disagree, n < 2, d < 1, or any
    entry is non-finite. Missing values are rejected, never imputed.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_matrix(self.x)
        y = _as_vector(self.y)
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatchError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 2:
            raise InsufficientRowsError(f"need at least 2 rows, got {x.shape[0]}")
        if x.shape[1] < 1:
            raise NoCovariateColumnsError("need at least one covariate column")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RankVector:
    """Ranks r_i = #{j : y_j <= y_i}; tied values share their maximal rank."""

    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.int64))


@dataclass(frozen=True)
class ScaledMatrix:
    """Per-column affine image of a matrix in [0, 1], with the maps recorded.

    ``xs[i, k] = (x[i, k] - offsets[k]) / scales[k]``; a constant column maps
    to all zeros with its scale forced to 1.
    """

    xs: np.ndarray
    offsets: np.ndarray
    scales: np.ndarray


def load_csv(path: str | os.PathLike, y_column: int | str = "last") -> Sample:
    """Read a comma-separated file into a Sample.

    The file may start with a single header line, detected by the first row
    containing any non-numeric token. Decimal separator is '.', quoting is
    not supported. ``y_column`` selects the response column by 0-based index
    or the literal ``"last"``; the remaining columns become the covariates
    in file order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise MissingFileError(f"no such file: {path}") from None

    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InsufficientRowsError(f"{path} is empty")

    rows = [ln.split(",") for ln in lines]

    def parse_row(tokens):
        vals = []
        for tok in tokens:
            vals.append(float(tok.strip()))
        return vals

    # Header iff any token of the first row fails to parse as a number.
    start = 0
    try:
        parse_row(rows[0])
    except ValueError:
        start = 1

    arity = len(rows[start]) if start < len(rows) else 0
    data = []
    for i, tokens in enumerate(rows[start:]):
        if len(tokens) != arity:
            raise InputError(
                f"row {i} has {len(tokens)} cells, expected {arity} (ragged file)"
            )
        vals = []
        for j, tok in enumerate(tokens):
            try:
                v = float(tok.strip())
            except ValueError:
                raise NonNumericCellError(f"non-numeric cell at ({i},{j}): {tok!r}") from None
            if not np.isfinite(v):
                raise NonNumericCellError(f"non-numeric cell at ({i},{j}): {tok!r}")
            vals.append(v)
        data.append(vals)

    if len(data) < 2:
        raise InsufficientRowsError(f"need at least 2 data rows, got {len(data)}")
    mat = np.asarray(data, dtype=np.float64)
    ncols = mat.shape[1]

    if y_column == "last":
        y_idx = ncols - 1
    else:
        try:
            y_idx = int(y_column)
        except (TypeError, ValueError):
            raise InputError(f"y_column must be a 0-based index or 'last', got {y_column!r}") from None
        if not 0 <= y_idx < ncols:
            raise InputError(f"y_column {y_idx} out of range for {ncols} columns")

    if ncols < 2:
        raise NoCovariateColumnsError("file has no covariate columns besides the response")
    y = mat[:, y_idx]
    x = np.delete(mat, y_idx, axis=1)
    return Sample(x=x, y=y)


def compute_ranks(y) -> RankVector:
    """Rank of each entry among the whole vector, counting ties upward.

    ``r_i`` is the number of entries (including y_i itself) less than or
    equal to y_i, so distinct data yield a permutation of 1..n and the
    maximum rank is always n.
    """
    arr = _as_vector(y)
    if arr.shape[0] < 2:
        raise InsufficientRowsError(f"need at least 2 entries, got {arr.shape[0]}")
    sorted_y = np.sort(arr, kind="stable")
    r = np.searchsorted(sorted_y, arr, side="right").astype(np.int64)
    return RankVector(r=r)


def minmax_scale(x) -> ScaledMatrix:
    """Map each column of ``x`` affinely onto [0, 1].

    Constant columns map to all zeros with scale 1. The recorded offsets and
    scales let new points be transformed consistently later. A stack of
    matrices, shape (..., n, d), scales each matrix on its own.
    """
    arr = _as_matrix(x, stacked=True)
    offsets = arr.min(axis=-2)
    span = arr.max(axis=-2) - offsets
    scales = np.where(span > 0.0, span, 1.0)
    xs = (arr - offsets[..., None, :]) / scales[..., None, :]
    return ScaledMatrix(xs=xs, offsets=offsets, scales=scales)
