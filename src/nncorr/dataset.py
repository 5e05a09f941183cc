"""Data ingestion, validation, rank computation, and covariate scaling.

Everything downstream consumes a :class:`Sample`. The helpers here are pure
functions that return plain arrays and are safe to share across threads:
:func:`minmax_scale` a scaled float64 matrix, and :func:`_tie_groups`, for
a stack of responses at once, the int64 ranks together with the sort order
and tie-group starts that the ridge right-hand sides are built from.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .rng import _whole


def _as_floats(v, name: str) -> np.ndarray:
    # Casting complex entries to float would drop their imaginary parts.
    try:
        if not np.iscomplexobj(v):
            return np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must hold numbers: {exc}") from None
    raise InputError(f"{name} must hold real numbers, got complex entries")


def _as_matrix(x, name: str = "x") -> np.ndarray:
    arr = _as_floats(x, name)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains NaN or infinite entries")
    return arr


def _as_vector(y, name: str = "y") -> np.ndarray:
    arr = _as_floats(y, name)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains NaN or infinite entries")
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
            raise InputError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if x.shape[0] < 2:
            raise InputError(f"need at least 2 rows, got {x.shape[0]}")
        if x.shape[1] < 1:
            raise InputError("need at least one covariate column")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _parses(tok: str) -> bool:
    try:
        float(tok.strip())
    except ValueError:
        return False
    return True


def _is_finite_number(tok: str) -> bool:
    try:
        return math.isfinite(float(tok.strip()))
    except ValueError:
        return False


# The line breaks of str.splitlines that universal newlines do not honour,
# UTF-8 encoded: five one-byte ones, then three of two or three bytes.
_OTHER_BREAKS = tuple(c.encode() for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# Bytes per read of the scan for those breaks.
_SCAN_BYTES = 1 << 18


def load_csv(path: str | os.PathLike, y_column: int | str = "last") -> Sample:
    """Read a comma-separated file into a Sample.

    Blank lines and a leading UTF-8 byte-order mark (which Excel's "CSV
    UTF-8" writes) are skipped. The first line is a header when none of its
    cells parses as a number; otherwise it is data. Every cell is read as
    Python's ``float()`` reads it after ``str.strip()``, so '.' is the
    decimal separator, quoting is not supported, and ``inf`` and ``nan`` are
    rejected. The first failure in row order is reported as an
    :class:`InputError`: a cell that is not a finite number is named (in the
    first row as in any other), and so is a row whose cell count differs
    from the first data row's. ``y_column`` selects the response column by
    0-based index, a float one only when whole (2.0 is column 2), or the
    literal ``"last"``; the remaining columns become the covariates in file
    order. A file that is not UTF-8 text raises an
    :class:`InputError` naming the path and the offset of the first byte
    that does not decode. A path that cannot be read (missing, a directory,
    no permission) raises the :class:`OSError` that ``open`` gives, which
    names the path.

    Two readers give these results. NumPy's C reader (``np.loadtxt``) parses
    the data rows from the open file, one line at a time, and keeps no
    Python object per row or cell; its numbers are the bits ``float()``
    gives. The per-cell reader runs instead, and gives every error message,
    wherever the C reader could read the file differently: a cell it
    refuses (underscores, non-ASCII digits, text, an empty cell), a value
    that is not finite, a ragged row, a header with no line after it, a
    line break that only ``str.splitlines`` honours (``\\v \\f \\x1c \\x1d
    \\x1e \\x85 \\u2028 \\u2029``), bytes that are not UTF-8. A path that is
    not a regular file (``/dev/stdin`` fed by a pipe, a FIFO) can be read
    only once: its bytes are read into memory, and both readers take them
    from there.
    """
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh = io.BytesIO(fh.read())
        mat = _loadtxt(fh)
        if mat is None:
            fh.seek(0)
            mat = _per_cell(fh.read(), path)
    if mat.shape[0] < 2:
        raise InputError(f"need at least 2 data rows, got {mat.shape[0]}")
    ncols = mat.shape[1]

    if y_column == "last":
        y_idx = ncols - 1
    elif isinstance(y_column, (float, np.floating)):
        y_idx = _whole("y_column", y_column)
    else:
        try:
            y_idx = int(y_column)
        except (TypeError, ValueError):
            raise InputError(f"y_column must be a 0-based index or 'last', got {y_column!r}") from None
    if not 0 <= y_idx < ncols:
        raise InputError(f"y_column {y_idx} out of range for {ncols} columns")

    if ncols < 2:
        raise InputError("file has no covariate columns besides the response")
    y = mat[:, y_idx]
    x = np.delete(mat, y_idx, axis=1)
    return Sample(x=x, y=y)


def _loadtxt(fh) -> np.ndarray | None:
    """The data rows of the binary file ``fh`` as ``np.loadtxt`` reads them,
    or None where its result could differ from :func:`_per_cell`'s.

    ``fh`` is read from its start and left open.
    """
    if _has_other_breaks(fh):
        return None
    fh.seek(0)
    # Universal newlines end a line at \n, \r\n or \r, as str.splitlines
    # does once the other breaks are ruled out.
    text = io.TextIOWrapper(fh, encoding="utf-8-sig")
    try:
        rows = _data_lines(text)
        if rows is None:
            return None
        mat = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a refused cell, a ragged row, or a UnicodeDecodeError
        return None
    finally:
        text.detach()
    return mat if np.isfinite(mat).all() else None


def _data_lines(text) -> Iterator[str] | None:
    """The lines of ``text`` from its first data row on, past the header and
    the blank and whitespace-only lines, all of which :func:`_per_cell` drops.

    None when the file has no such line, or none after its header, where
    ``np.loadtxt`` would warn of no data.
    """
    lines = filter(str.strip, text)
    line = next(lines, None)
    if line is not None and not any(_parses(tok) for tok in line.split(",")):
        line = next(lines, None)  # past the header
    return None if line is None else itertools.chain((line,), lines)


def _has_other_breaks(fh) -> bool:
    """Whether the binary file ``fh`` holds a line break that only
    ``str.splitlines`` honours."""
    tail = b""
    while chunk := fh.read(_SCAN_BYTES):
        # A multi-byte break that straddles two reads leaves the second
        # one not ASCII; an ASCII read can hold only the one-byte breaks.
        if chunk.isascii():
            breaks = _OTHER_BREAKS[:5]
        else:
            breaks, chunk = _OTHER_BREAKS, tail + chunk
        if any(br in chunk for br in breaks):
            return True
        tail = chunk[-2:]
    return False


def _decode(raw: bytes, path) -> str:
    # "utf-8-sig" would count the offset of a bad byte after the BOM.
    bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0
    try:
        return str(memoryview(raw)[bom:], "utf-8")
    except UnicodeDecodeError as exc:
        at = bom + exc.start
        raise InputError(
            f"{path} is not UTF-8 text: byte 0x{raw[at]:02x} at offset {at} ({exc.reason})"
        ) from None


def _per_cell(raw: bytes, path) -> np.ndarray:
    """The data rows of the bytes ``raw`` of ``path``, one ``float()`` per
    cell; raises the first failure in row order."""
    text = _decode(raw, path)

    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InputError(f"{path} is empty")

    rows = [ln.split(",") for ln in lines]

    # Header iff no cell of the first row parses as a number, read as every
    # data cell is. A first row that mixes numbers and text is data, so its
    # bad cell is reported below.
    start = 0 if any(_parses(tok) for tok in rows[0]) else 1
    rows = rows[start:]

    arity = len(rows[0]) if rows else 0
    ragged = next((i for i, tokens in enumerate(rows) if len(tokens) != arity), len(rows))
    # The rows before the first ragged one are parsed in one pass; a bad cell
    # among them is reported before the ragged row, as row order demands.
    # float() keeps a '\x1f' that str.strip() removes, so the strip stays.
    cells = list(itertools.chain.from_iterable(rows[:ragged]))
    try:
        flat = np.fromiter(map(float, map(str.strip, cells)), np.float64, count=len(cells))
    except ValueError:
        flat = None
    if flat is None or not np.isfinite(flat).all():
        # Only a failed parse scans the cells again, to name the first culprit.
        i, j, tok = next(
            (i, j, tok)
            for i, tokens in enumerate(rows[:ragged])
            for j, tok in enumerate(tokens)
            if not _is_finite_number(tok)
        )
        raise InputError(f"non-numeric cell at ({i},{j}): {tok!r}")
    if ragged < len(rows):
        raise InputError(
            f"row {ragged} has {len(rows[ragged])} cells, expected {arity} (ragged file)"
        )
    return flat.reshape(len(rows), arity)


def _tie_groups(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie groups of every row of a (c, m) stack, from one stable sort per row.

    Returns ``(order, first, ranks)``. ``order`` is the flat sort order:
    entry ``b * m + q`` is the index into ``y.ravel()`` of row b's q-th
    smallest response. ``first[b, i]`` is the first sorted index of y_bi's
    tie group, so ``m - first`` counts the entries >= y_bi, and
    ``ranks[b, i]``, one past its last sorted index, counts those <= y_bi.
    """
    c, m = y.shape
    off = m * np.arange(c)[:, None]
    order = (np.argsort(y, axis=-1, kind="stable") + off).ravel()
    ys = y.ravel()[order]
    # new[i]: sorted entry i + 1 starts a group, as it does at a row boundary,
    # so one flat pass serves every row.
    new = ys[1:] != ys[:-1]
    new[m - 1 :: m] = True
    flat = np.arange(c * m)
    first = np.empty(c * m, dtype=np.intp)
    first[order] = np.maximum.accumulate(np.where(np.append(True, new), flat, 0))
    ranks = np.empty(c * m, dtype=np.int64)
    last = np.where(np.append(new, True), flat + 1, c * m)
    ranks[order] = np.minimum.accumulate(last[::-1])[::-1]
    return order, first.reshape(c, m) - off, ranks.reshape(c, m) - off


def minmax_scale(x: np.ndarray) -> np.ndarray:
    """Map each column of a finite float matrix ``x`` affinely onto [0, 1].

    Constant columns map to all zeros. A stack of matrices, shape
    (..., n, d), scales each matrix on its own. A column whose range
    exceeds the float range is halved before the offset is subtracted.
    The entries are not checked: a :class:`Sample` holds finite ones.
    """
    arr = np.asarray(x, dtype=np.float64)
    offsets = arr.min(axis=-2)
    top = arr.max(axis=-2)
    with np.errstate(over="ignore"):
        span = top - offsets
    wide = ~np.isfinite(span)
    if wide.any():
        half = np.where(wide, 0.5, 1.0)
        arr = arr * half[..., None, :]
        offsets = offsets * half
        span = top * half - offsets
    scales = np.where(span > 0.0, span, 1.0)
    return (arr - offsets[..., None, :]) / scales[..., None, :]
