"""Tests for CSV loading, rank computation, and min-max scaling."""

import gzip
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nncorr import dataset, estimate
from nncorr.dataset import Sample, _parses, _tie_groups, load_csv, minmax_scale
from nncorr.errors import InputError

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below is skipped without it
    given = None


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_with_header(tmp_path):
    path = _write(tmp_path, "x1,x2,y\n0.0,1.0,2.0\n3.0,4.0,5.0\n")
    s = load_csv(path)
    assert s.n == 2 and s.d == 2
    np.testing.assert_array_equal(s.x, [[0.0, 1.0], [3.0, 4.0]])
    np.testing.assert_array_equal(s.y, [2.0, 5.0])
    # A header cell may be blank; it only must not parse as a number.
    assert load_csv(_write(tmp_path, "x, ,y\n1,2,3\n4,5,6\n", "b.csv")).n == 2


def test_load_csv_without_header(tmp_path):
    path = _write(tmp_path, "0.0,1.0,2.0\n3.0,4.0,5.0\n")
    s = load_csv(path)
    assert s.n == 2 and s.d == 2
    np.testing.assert_array_equal(s.y, [2.0, 5.0])


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM; in a headerless file
    # it lands in the first data cell unless the reader drops it.
    text = "0.5749,1.0,2.0\n3.0,4.0,5.0\n6.0,7.0,8.5\n"
    plain = load_csv(_write(tmp_path, text, "plain.csv"))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    bom = load_csv(path)
    assert bom.x.tobytes() == plain.x.tobytes() and bom.y.tobytes() == plain.y.tobytes()


def test_load_csv_y_column_index(tmp_path):
    path = _write(tmp_path, "2.0,0.0,1.0\n5.0,3.0,4.0\n")
    s = load_csv(path, y_column=0)
    np.testing.assert_array_equal(s.y, [2.0, 5.0])
    np.testing.assert_array_equal(s.x, [[0.0, 1.0], [3.0, 4.0]])


def test_load_csv_y_column_matches_reordered_file(tmp_path):
    # The same data with the response moved to the front must load identically.
    a = load_csv(_write(tmp_path, "1.0,2.0,9.0\n3.0,4.0,8.0\n", "a.csv"))
    b = load_csv(_write(tmp_path, "9.0,1.0,2.0\n8.0,3.0,4.0\n", "b.csv"), y_column=0)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_load_csv_missing_file(tmp_path):
    # An unreadable path raises open()'s own OSError, which names the path;
    # a directory as much as a missing file.
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_csv(tmp_path / "absent.csv")
    with pytest.raises(OSError, match=re.escape(str(tmp_path))):
        load_csv(tmp_path)


def test_load_csv_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match=r"^non-numeric cell at \(1,1\): 'oops'$"):
        load_csv(path)


def test_load_csv_first_row_with_a_typo_is_not_a_header(tmp_path):
    # A first row that mixes numbers and text is a data row with a bad cell,
    # not a header to drop.
    path = _write(tmp_path, "1,2x,3\n4,5,6\n7,8,9\n10,11,12\n")
    with pytest.raises(InputError, match=r"non-numeric cell at \(0,1\): '2x'"):
        load_csv(path)
    with pytest.raises(InputError, match=r"non-numeric cell at \(0,1\): 'x2'"):
        load_csv(_write(tmp_path, "1,x2,y\n1,2,3\n4,5,6\n", "b.csv"))


def test_load_csv_first_row_is_stripped_like_any_other(tmp_path):
    # Header detection reads the first row's cells as every data cell is
    # read, after str.strip(): cells padded with '\x1f' are numbers there too.
    for i, text in enumerate(("\x1f1,\x1f2\n3,4\n5,6\n", "1,2\n\x1f3,\x1f4\n5,6\n")):
        s = load_csv(_write(tmp_path, text, f"{i}.csv"))
        assert s.n == 3
        np.testing.assert_array_equal(s.y, [2.0, 4.0, 6.0])


def test_load_csv_nan_cell_rejected(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0,nan\n")
    with pytest.raises(InputError, match=r"^non-numeric cell at \(1,1\): 'nan'$"):
        load_csv(path)


def test_load_csv_single_data_row(tmp_path):
    path = _write(tmp_path, "x,y\n1.0,2.0\n")
    with pytest.raises(InputError, match="^need at least 2 data rows, got 1$"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(InputError, match="data.csv is empty$"):
        load_csv(_write(tmp_path, ""))


def test_load_csv_single_column(tmp_path):
    path = _write(tmp_path, "1.0\n2.0\n")
    with pytest.raises(InputError, match="^file has no covariate columns besides the response$"):
        load_csv(path)


def test_load_csv_ragged_rows(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0\n")
    with pytest.raises(InputError):
        load_csv(path)


def test_load_csv_bad_y_column(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InputError):
        load_csv(path, y_column="middle")
    with pytest.raises(InputError):
        load_csv(path, y_column=7)


def test_load_csv_bad_cell_before_a_ragged_row_wins(tmp_path):
    path = _write(tmp_path, "1,2,3\n4,oops,6\n7,8,9\n10,11\n")
    with pytest.raises(InputError, match=r"non-numeric cell at \(1,1\): 'oops'"):
        load_csv(path)


def test_load_csv_ragged_row_before_a_bad_cell_wins(tmp_path):
    path = _write(tmp_path, "1,2,3\n4,5\n7,8,9\n10,oops,12\n")
    with pytest.raises(InputError, match=r"^row 1 has 2 cells, expected 3") as info:
        load_csv(path)
    assert type(info.value) is InputError


def test_load_csv_overflowing_cell_rejected(tmp_path):
    path = _write(tmp_path, "1,2\n3,4\n5,1e309\n")
    with pytest.raises(InputError, match=r"non-numeric cell at \(2,1\): '1e309'"):
        load_csv(path)


def test_load_csv_accepts_what_float_accepts(tmp_path):
    # The grammar is float() after str.strip(): underscores between digits
    # parse, and so does a cell padded with '\x1f', which float() alone keeps.
    s = load_csv(_write(tmp_path, "1_000,2\n3,\x1f4\n5, 6\t\n"))
    np.testing.assert_array_equal(s.x, [[1000.0], [3.0], [5.0]])
    np.testing.assert_array_equal(s.y, [2.0, 4.0, 6.0])


def test_load_csv_is_not_utf8(tmp_path):
    # The offset counts from the first byte of the file, BOM included. A bad
    # byte after a thousand clean rows stops the C reader midway, one in the
    # header stops it before it starts, and a compressed suffix skips it.
    rows = "".join(f"{i},{2 * i}\n" for i in range(1000))
    for name, raw, byte, offset in (
        ("latin1.csv", "x\xe9,y\n1,2\n3,4\n".encode("latin-1"), 0xE9, 1),
        ("utf16.csv", "x,y\n1,2\n".encode("utf-16"), 0xFF, 0),
        ("late.csv", b"\xef\xbb\xbf" + (rows + "5,\xb56\n").encode("latin-1"), 0xB5,
         3 + len(rows) + 2),
        ("data.csv.gz", gzip.compress(b"x,y\n1,2\n3,4\n"), 0x8B, 1),
    ):
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(InputError, match=(
            f"^{re.escape(str(path))} is not UTF-8 text: byte 0x{byte:02x} at offset {offset} \\("
        )):
            load_csv(path)


def test_load_csv_reads_a_compressed_suffix_as_plain_bytes(tmp_path):
    # np.loadtxt would decompress a path ending in .gz; load_csv hands it an
    # open file, which is read as it is.
    text = "x,y\n1,2\n3,4.5\n"
    a = load_csv(_write(tmp_path, text, "a.csv"))
    b = load_csv(_write(tmp_path, text, "a.csv.gz"))
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_load_csv_reads_plain_numbers_with_the_c_reader(tmp_path, monkeypatch):
    # Headers, blank lines before them, CRLF and CR endings and a BOM keep
    # the C reader; the per-cell reader is not called.
    monkeypatch.setattr(dataset, "_per_cell", None)
    for i, text in enumerate((
        "x1,x2,y\n0.5,1e-3,2\n-3,4.25,5\n\n",
        "\n \n\tx1, x2 ,y\r\n0.5, 1e-3,2\r\n\r\n-3,4.25 ,5\r\n",
        "\ufeff0.5,1e-3,2\r-3,4.25,5\r",
    )):
        s = load_csv(_write(tmp_path, text, f"{i}.csv"))
        np.testing.assert_array_equal(s.x, [[0.5, 1e-3], [-3.0, 4.25]])
        np.testing.assert_array_equal(s.y, [2.0, 5.0])


_STREAM_TEXT = "x1,x2,y\n0.5,1e-3,2\n-3,4.25,5\n7,8,9\n"


def _same_as_a_regular_file(tmp_path, got):
    want = load_csv(_write(tmp_path, _STREAM_TEXT, "plain.csv"))
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_load_csv_reads_a_pipe_once(tmp_path):
    # --input /dev/stdin fed by a pipe: every open of the path shares one
    # stream, so a second read of it would find nothing.
    r, w = os.pipe()
    os.write(w, _STREAM_TEXT.encode())
    os.close(w)
    try:
        got = load_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    _same_as_a_regular_file(tmp_path, got)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_load_csv_reads_a_fifo_once(tmp_path):
    # A FIFO gives its bytes to one open; a second open would wait for a
    # writer. Should load_csv open it again, the writer keeps opening it,
    # each time giving an empty stream, so that the test fails, not hangs.
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)
    done = threading.Event()

    def feed():
        with open(fifo, "w") as fh:
            fh.write(_STREAM_TEXT)
        while not done.wait(2):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = load_csv(fifo)
    finally:
        done.set()
        writer.join()
    _same_as_a_regular_file(tmp_path, got)


def test_load_csv_lets_no_numpy_warning_escape(tmp_path):
    # np.loadtxt warns of a file without data rows; those files take the
    # per-cell reader, which raises its own errors.
    cases = (("", "is empty$"), ("\n\n", "is empty$"), ("x,y\n", "got 0$"),
             ("\nx,y\n\n\n", "got 0$"), ("x,y\n \n", "got 0$"), ("x,y\n1,2\n", "got 1$"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (text, message) in enumerate(cases):
            with pytest.raises(InputError, match=message):
                load_csv(_write(tmp_path, text, f"{i}.csv"))


def test_load_csv_transient_memory(tmp_path):
    # No Python object per row or cell: the traced peak of a 30 000-row file,
    # result included, stays within three times the file's size.
    rng = np.random.default_rng(4)
    path = tmp_path / "big.csv"
    np.savetxt(path, rng.standard_normal((30_000, 7)), fmt="%.17g", delimiter=",",
               header="x1,x2,x3,x4,x5,x6,y", comments="")
    tracemalloc.start()
    try:
        s = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n == 30_000 and s.d == 6
    assert peak <= 3 * path.stat().st_size


def _per_cell_load_csv(path, y_column="last"):
    # A loader with one float() and one isfinite() per cell, in row order:
    # the oracle of the differential test.
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()

    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise InputError(f"{path} is empty")
    rows = [ln.split(",") for ln in lines]
    start = 0 if any(_parses(tok) for tok in rows[0]) else 1
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
                raise InputError(f"non-numeric cell at ({i},{j}): {tok!r}") from None
            if not np.isfinite(v):
                raise InputError(f"non-numeric cell at ({i},{j}): {tok!r}")
            vals.append(v)
        data.append(vals)

    if len(data) < 2:
        raise InputError(f"need at least 2 data rows, got {len(data)}")
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
        raise InputError("file has no covariate columns besides the response")
    return Sample(x=np.delete(mat, y_idx, axis=1), y=mat[:, y_idx])


def _outcome(loader, path, y_column):
    try:
        s = loader(path, y_column=y_column)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)
    return s.x.shape, s.x.tobytes(), s.y.tobytes()


# Cells that float() and the finiteness check treat differently, and cells
# that float() reads and NumPy's C reader refuses.
_ODD_TOKENS = ("", " ", "nan", "inf", "1e309", "1_0", "0x1", "\t4", "\x1f5", "x",
               "\u0661\u0662", "\uff11")
# Line breaks of str.splitlines that universal newlines do not honour.
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("br", _OTHER_BREAKS)
def test_load_csv_ends_lines_where_str_splitlines_does(tmp_path, br):
    # NumPy's C reader would strip these breaks around a number as
    # whitespace; the lines end at them, as str.splitlines ends them.
    for i, text in enumerate((
        f"x,y\n1{br},2\n3,4\n5,6\n",
        f"x,y\n1,2{br}\n3,4\n",
        f"x{br},y\n1,2\n3,4\n",
        f"{br}1,2\n3,4\r\n5,{br}6\n",
    )):
        path = _write(tmp_path, text, f"{i}.csv")
        assert _outcome(load_csv, path, "last") == _outcome(_per_cell_load_csv, path, "last")


if given is not None:

    @st.composite
    def csv_texts(draw):
        # n = 0 with a header is a header-only file; d = 1 a single column.
        n, d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
        num = st.one_of(
            st.integers(-1000, 1000).map(str),
            st.floats(-1e6, 1e6, allow_nan=False).map(repr),
            st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: f"{v:.17g}"),
        )
        rows = [[draw(num) for _ in range(d)] for _ in range(n)]
        # A few cells become odd tokens, a few rows lose or gain a cell.
        for _ in range(draw(st.integers(0, 3)) if n else 0):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
            rows[i][j] = draw(st.sampled_from(_ODD_TOKENS))
        for _ in range(draw(st.integers(0, 1)) if n else 0):
            i = draw(st.integers(0, n - 1))
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
        lines = [",".join(r) for r in rows]
        if draw(st.booleans()):
            lines.insert(0, ",".join(f"c{j}" for j in range(d)))
        # Blank and whitespace-only lines anywhere, before the header too.
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))
        # A break that only str.splitlines honours, inside a line or at its end.
        for _ in range(draw(st.integers(0, 1)) if lines else 0):
            i = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(_OTHER_BREAKS)) + lines[i][at:]
        end = draw(st.sampled_from(("\n", "\r\n", "\r")))
        bom = draw(st.sampled_from(("", "\ufeff")))
        return bom + end.join(lines) + draw(st.sampled_from(("", end)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(csv_texts(), st.sampled_from(("last", 0, 1, 4)))
    def test_load_csv_matches_the_per_cell_loop(tmp_path_factory, text, y_column):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_csv, path, y_column) == _outcome(_per_cell_load_csv, path, y_column)

else:

    @pytest.mark.skip(reason="needs hypothesis")
    def test_load_csv_matches_the_per_cell_loop():
        pass


# ---------------------------------------------------------------------------
# Sample


def test_sample_validates_shapes():
    with pytest.raises(InputError):
        Sample(x=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(InputError, match="^need at least 2 rows, got 1$"):
        Sample(x=np.zeros((1, 2)), y=np.zeros(1))
    with pytest.raises(InputError, match="^x contains NaN or infinite entries$"):
        Sample(x=np.array([[0.0], [np.inf]]), y=np.zeros(2))
    with pytest.raises(InputError, match="^y contains NaN or infinite entries$"):
        Sample(x=np.zeros((2, 1)), y=np.array([0.0, np.nan]))


@pytest.mark.parametrize("field", ["x", "y"])
def test_sample_refuses_non_numeric_entries(field):
    data = {"x": np.zeros((5, 2)), "y": np.arange(5.0)}
    data[field] = [["a", "b"]] * 5 if field == "x" else ["a"] * 5
    with pytest.raises(InputError, match=f"^{field} must hold numbers: could not convert"):
        Sample(**data)


@pytest.mark.parametrize("field", ["x", "y"])
def test_sample_refuses_complex_entries(field):
    # Casting would drop the imaginary parts, with only a ComplexWarning.
    rng = np.random.default_rng(5)
    data = {"x": rng.uniform(size=(50, 2)), "y": np.arange(50.0)}
    data[field] = data[field] + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{field} must hold real numbers, got complex entries$"):
            Sample(**data)
        with pytest.raises(InputError, match=f"^{field} must hold real numbers, got complex entries$"):
            estimate(Sample(**{**data, field: list(data[field])}))
    # A complex dtype with zero imaginary parts is refused as well.
    data[field] = data[field].real.astype(complex)
    with pytest.raises(InputError, match="must hold real numbers"):
        Sample(**data)


def test_sample_dimensions():
    s = Sample(x=np.zeros((5, 3)), y=np.arange(5.0))
    assert s.n == 5 and s.d == 3


# ---------------------------------------------------------------------------
# ranks


def _ranks(y):
    # The ranks of _tie_groups on a stack of one response vector.
    return _tie_groups(y[None])[2][0]


def test_ranks_hand_example_with_ties():
    # Ties share the highest position among equals.
    r = _ranks(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
    assert r.dtype == np.int64
    assert r.tolist() == [3, 2, 4, 2, 5]


def test_ranks_distinct_data_are_a_permutation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        y = rng.standard_normal(40)
        r = _ranks(y)
        assert sorted(r.tolist()) == list(range(1, 41))
        # The max always lands at rank n, the min at its tie count (1 here).
        assert r[np.argmax(y)] == 40
        assert r[np.argmin(y)] == 1


def test_ranks_all_tied():
    r = _ranks(np.full(6, 2.5))
    assert r.tolist() == [6] * 6


def test_ranks_invariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(60)
    a = _ranks(y)
    b = _ranks(np.exp(y))
    c = _ranks(3.0 * y - 7.0)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def _tie_kinds():
    rng = np.random.default_rng(12)
    yield rng.standard_normal(500)
    yield rng.integers(0, 7, 500).astype(np.float64)
    yield np.full(500, 2.5)


def test_ranks_match_a_binary_search_of_the_sorted_vector():
    for y in _tie_kinds():
        expected = np.searchsorted(np.sort(y), y, side="right")
        np.testing.assert_array_equal(_ranks(y), expected)


# ---------------------------------------------------------------------------
# minmax_scale


def test_minmax_scale_hand_example():
    m = minmax_scale(np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]]))
    # A constant column maps to all zeros.
    np.testing.assert_array_equal(m, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])


def test_minmax_scale_output_range():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4)) * 100 - 17
    m = minmax_scale(x)
    assert m.min() >= 0.0 and m.max() <= 1.0
    # Each non-constant column attains both endpoints.
    np.testing.assert_array_equal(m.min(axis=0), np.zeros(4))
    np.testing.assert_array_equal(m.max(axis=0), np.ones(4))


def test_minmax_scale_roundtrip():
    rng = np.random.default_rng(9)
    x = rng.uniform(-5, 5, size=(30, 3))
    m = minmax_scale(x)
    lo, hi = x.min(axis=0), x.max(axis=0)
    np.testing.assert_allclose(m * (hi - lo) + lo, x, atol=1e-12)


def test_minmax_scale_range_beyond_float_range():
    # max - min overflows here; the column is halved first instead, without
    # a warning, and a finite-range column beside it scales as on its own.
    wide = np.array([[-1e308], [0.0], [1e308]])
    other = np.array([[0.1], [0.7], [0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(minmax_scale(wide), [[0.0], [0.5], [1.0]])
        both = minmax_scale(np.hstack([wide, other]))
        np.testing.assert_array_equal(both[:, :1], [[0.0], [0.5], [1.0]])
        np.testing.assert_array_equal(both[:, 1:], minmax_scale(other))
        stack = minmax_scale(np.stack([np.hstack([wide, other]), np.hstack([other, other])]))
        np.testing.assert_array_equal(stack[0], both)
        np.testing.assert_array_equal(stack[1], minmax_scale(np.hstack([other, other])))
        try:
            res = estimate(Sample(x=wide, y=np.array([0.0, 1.0, 2.0])))
        except InputError as exc:
            assert "NaN or infinite" not in str(exc)
        else:
            assert np.isfinite([res.t_hat, res.l_hat, res.t_bc]).all()
