"""Block-at-a-time text decode equals the row-at-a-time reader it replaced.

``frame/io_csv.py`` and ``io/jsonl.py`` used to read a byte range one
``readline`` / ``decode`` / parser call per row.  Those loops live on
here, verbatim, as the oracles: for generated CSV / JSONL text (quoted
commas and quotes, CRLF, blank lines, a missing trailing newline,
multi-byte UTF-8, empty fields) and random cut points,

(a) the partitions, concatenated, are the whole-file read,
(b) each partition is the oracle's rows, row for row,
(c) ``nrows``, ``usecols`` order and ragged rows behave as before.

The byte-grid kernel that tokenizes regular blocks answers to the same
oracle: the whole module runs with the kernel's size floor removed, so
every block that is regular goes through the grid and every other one
through the chained ``csv.reader``, and the second half of the CSV
section aims files at the line between the two (decorated integers,
terminator mixes, a quote or NUL in a late block, ragged rows) and
compares typed columns and their tracked bytes.
"""

import csv
import io
import json
import math
import os
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import io_csv
from repro.frame.dtypes import array_nbytes
from repro.frame.io_csv import read_csv, read_line_blocks
from repro.io.jsonl import read_jsonl


@pytest.fixture(autouse=True, scope="module")
def _grid_at_any_size():
    """These files are tiny: let the grid kernel take them anyway."""
    floor, io_csv._GRID_MIN_BYTES = io_csv._GRID_MIN_BYTES, 0
    yield
    io_csv._GRID_MIN_BYTES = floor


# -- the row-at-a-time oracles (the bodies this PR deleted) -----------------


def oracle_csv_rows(path, byte_range):
    start, end = byte_range
    with open(path, "rb") as f:
        f.seek(start)
        if start > 0:
            f.seek(start - 1)
            if f.read(1) != b"\n":
                f.readline()  # finish the partial line; it belongs upstream
        while f.tell() < end:
            line = f.readline()
            if not line:
                break
            text = line.decode("utf-8").rstrip("\r\n")
            if text:
                yield next(csv.reader([text]))


def oracle_jsonl_lines(path, byte_range):
    start, end = byte_range
    with open(path, "rb") as f:
        f.seek(start)
        if start > 0:
            f.seek(start - 1)
            if f.read(1) != b"\n":
                f.readline()  # partial line belongs to the upstream range
        while f.tell() < end:
            raw = f.readline()
            if not raw:
                break
            text = raw.decode("utf-8").strip()
            if text:
                yield text


# -- generated text -----------------------------------------------------------

HEADER = ["a", "b", "c"]
fields = st.text(alphabet='ab ,"é日7', max_size=5)
newlines = st.sampled_from(["\n", "\r\n"])


@st.composite
def text_files(draw, render):
    """(bytes, cut points): rows rendered by ``render``, blank lines
    mixed in, the final newline sometimes missing."""
    eol = draw(newlines)
    lines = draw(st.lists(st.one_of(st.just(""), render), max_size=25))
    body = "".join(line + eol for line in lines)
    if body and draw(st.booleans()):
        body = body[: -len(eol)]
    return body.encode("utf-8"), draw(
        st.lists(st.integers(0, len(body.encode("utf-8"))), max_size=5)
    )


def _csv_line(row):
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    return out.getvalue()


csv_lines = st.lists(fields, min_size=3, max_size=3).map(_csv_line)
json_lines = st.fixed_dictionaries({
    "a": st.one_of(st.none(), st.integers(-5, 5)),
    "b": st.one_of(st.none(), fields),
    "c": st.one_of(st.none(), st.floats(-9, 9, allow_nan=False)),
}).map(partial(json.dumps, ensure_ascii=False))


def _tiles(cuts, lo, hi):
    """Ranges that tile ``[lo, hi)`` at the cut points inside it."""
    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return list(zip(edges[:-1], edges[1:]))


def _write(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(data)
    return path


def _rows(frame):
    """A frame as a list of row tuples (NaN as None)."""
    cols = [
        [None if isinstance(v, float) and math.isnan(v) else v
         for v in frame.column(name).to_array().tolist()]
        for name in frame.columns
    ]
    return list(zip(*cols)) if cols else []


# -- CSV ------------------------------------------------------------------------

AS_TEXT = {name: "object" for name in HEADER}


def _expected(rows, positions=(0, 1, 2)):
    return [tuple(row[p] or None for p in positions) for row in rows]


@given(text_files(csv_lines), st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_csv_partitions_equal_the_oracle(file, nrows):
    body, cuts = file
    header = (",".join(HEADER) + "\n").encode()
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "t.csv", header + body)
        size = len(header) + len(body)
        whole = _rows(read_csv(path, dtype=AS_TEXT))
        assert whole == _expected(oracle_csv_rows(path, (len(header), size)))
        assert _rows(read_csv(path, dtype=AS_TEXT, nrows=nrows)) == whole[:nrows]
        # usecols in any order come back in header order
        assert _rows(read_csv(path, dtype=AS_TEXT, usecols=["c", "a"])) == [
            (row[0], row[2]) for row in whole
        ]
        stitched = []
        for rng in _tiles([len(header) + c for c in cuts], len(header), size):
            expected = _expected(oracle_csv_rows(path, rng))
            assert _rows(read_csv(path, dtype=AS_TEXT, byte_range=rng)) == expected
            assert _rows(
                read_csv(path, dtype=AS_TEXT, byte_range=rng, nrows=nrows)
            ) == expected[:nrows]
            stitched += expected
        assert stitched == whole


@given(text_files(csv_lines), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_line_blocks_tile_a_range_at_any_block_size(file, block_bytes):
    body, cuts = file
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "t.txt", body)
        for rng in _tiles(cuts, 0, len(body)):
            blocks = list(read_line_blocks(path, rng, block_bytes=block_bytes))
            assert all(block.endswith(b"\n") for block in blocks[:-1])
            assert b"".join(blocks) == b"".join(
                read_line_blocks(path, rng, block_bytes=1 << 20)
            )
        assert b"".join(read_line_blocks(path, block_bytes=block_bytes)) == body


def test_quoted_newlines_parse_across_block_boundaries(tmp_path, monkeypatch):
    rows = [["1", 'multi\nline, "quoted"\r\nfield', "x"], ["2", "", "y\n"]] * 4
    path = tmp_path / "q.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([HEADER, *rows])
    monkeypatch.setattr(
        io_csv, "read_line_blocks", partial(read_line_blocks, block_bytes=5)
    )
    assert _rows(read_csv(str(path), dtype=AS_TEXT)) == _expected(rows)


@pytest.mark.parametrize("byte_range", [None, "data"])
def test_short_row_raises_only_when_a_missing_field_is_wanted(
    tmp_path, byte_range
):
    path = _write(str(tmp_path), "r.csv", b"a,b,c\n1,2,3\n4,5\n6,7,8,9\n")
    if byte_range == "data":
        byte_range = (6, os.path.getsize(path))
    # the row-at-a-time reader indexed ``row[pos]``: IndexError
    with pytest.raises(IndexError):
        read_csv(path, byte_range=byte_range)
    with pytest.raises(IndexError):
        list(
            [row[p] for p in (0, 1, 2)]
            for row in oracle_csv_rows(path, (6, os.path.getsize(path)))
        )
    # a long row's extra field is ignored, a short row's absent one unread
    frame = read_csv(path, byte_range=byte_range, usecols=["b", "a"])
    assert _rows(frame) == [(1, 2), (4, 5), (6, 7)]


# -- CSV aimed at the grid kernel ------------------------------------------------

#: cells on both sides of ``-?[0-9]{1,18}``, and what inference does
#: with the ones int() reads differently from the kernel's pattern
int_cells = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 999).map(lambda i: f"{i:05d}"),
    st.sampled_from([
        "0", "-0", "-7", "007", "-007",
        "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "9" * 19,
        "9223372036854775807", "-9223372036854775808",
        "9223372036854775808",
        "1_0", "+3", " 5", "5 ", "-", "--1", "1-", "",
    ]),
)
float_cells = st.sampled_from(["1.5", "-2e3", "nan", "", "7", "inf"])
text_cells = st.sampled_from(["", "x", "ab c", "é", "日本", "7é", "-", "ünï"])


@st.composite
def kernel_files(draw):
    """(bytes, cuts, block size): three columns drawn from one cell kind
    each; per-line terminators (one kind, or mixed); sometimes a blank
    line, a ragged row, a quoted cell or a NUL somewhere."""
    kinds = draw(st.lists(
        st.sampled_from([int_cells, float_cells, text_cells]),
        min_size=3, max_size=3))
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=20))
    lines = [_csv_line(row) for row in rows]
    for spoiler in draw(st.lists(st.sampled_from(
            ["", "1,2", "1,2,3,4", '1,"a,""b",3', "1,\0,3"]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), spoiler)
    eols = draw(st.one_of(
        st.sampled_from([["\n"], ["\r\n"]]),
        st.just(["\n", "\r\n"]),
    ))
    body = "".join(line + draw(st.sampled_from(eols)) for line in lines)
    if body and draw(st.booleans()) and draw(st.booleans()):
        body = body.rstrip("\r\n")
    data = body.encode("utf-8")
    cuts = draw(st.lists(st.integers(0, len(data)), max_size=4))
    return data, cuts, draw(st.sampled_from([7, 40, 1 << 20]))


def _oracle_columns(path, byte_range, positions):
    """The oracle's rows as inferred columns, or the IndexError the
    row-at-a-time reader raised on a row too short for ``positions``."""
    rows = list(oracle_csv_rows(path, byte_range))
    cells = [[row[p] for row in rows] for p in positions]
    return [io_csv._infer_column(values) for values in cells]


def _assert_same_column(got, expected):
    assert got.values.dtype == expected.values.dtype
    if got.values.dtype.kind == "f":
        np.testing.assert_array_equal(got.values, expected.values)
    else:
        assert got.values.tolist() == expected.values.tolist()
    # the decode's carried heap bytes are what walking the cells gives
    assert got.nbytes == expected.nbytes == array_nbytes(got.values)


@given(kernel_files())
@settings(max_examples=150, deadline=None)
def test_grid_kernel_equals_the_oracle(file):
    data, cuts, block_bytes = file
    header = (",".join(HEADER) + "\n").encode()
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "t.csv", header + data)
        size = len(header) + len(data)
        ranges = [None] + _tiles(
            [len(header) + c for c in cuts], len(header), size)
        subsets = [
            [HEADER[p] for p in range(3) if mask >> p & 1]
            for mask in range(1, 8)
        ]
        blocks = partial(read_line_blocks, block_bytes=block_bytes)
        original, io_csv.read_line_blocks = io_csv.read_line_blocks, blocks
        try:
            for rng in ranges:
                for usecols in subsets:
                    positions = [HEADER.index(c) for c in usecols]
                    try:
                        expected = _oracle_columns(
                            path, rng or (len(header), size), positions)
                    except IndexError:
                        with pytest.raises(IndexError):
                            read_csv(path, usecols=usecols, byte_range=rng)
                        continue
                    got = read_csv(path, usecols=usecols, byte_range=rng)
                    assert got.columns == usecols
                    for name, column in zip(usecols, expected):
                        _assert_same_column(got.column(name), column)
        finally:
            io_csv.read_line_blocks = original


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_regular_blocks_take_the_grid_and_the_rest_the_row_reader(
    tmp_path, monkeypatch, eol
):
    """The dispatch itself: which tokenizer saw which block."""
    seen = []
    grid_of = io_csv._Grid.of.__func__

    def spy(cls, block, n_fields):
        grid = grid_of(cls, block, n_fields)
        seen.append(grid is not None)
        return grid

    monkeypatch.setattr(io_csv._Grid, "of", classmethod(spy))
    monkeypatch.setattr(
        io_csv, "read_line_blocks", partial(read_line_blocks, block_bytes=12)
    )
    rows = [f"{i},{i * i},s{i}" for i in range(12)]
    path = _write(str(tmp_path), "r.csv",
                  eol.join(["a,b,c", *rows, ""]).encode())
    frame = read_csv(path)
    assert seen and all(seen)
    assert frame.column("b").values.tolist() == [i * i for i in range(12)]
    assert frame.column("b").values.dtype == np.int64

    # a quote in a late block: the grid up to it, one reader from there on
    del seen[:]
    rows[8] = '8,"6\n4",s8'
    path = _write(str(tmp_path), "q.csv",
                  eol.join(["a,b,c", *rows, ""]).encode())
    frame = read_csv(path)
    assert seen[0] and not seen[-1] and seen.count(False) == 1
    assert frame.column("b").values.tolist() == [
        "6\n4" if i == 8 else str(i * i) for i in range(12)]
    assert frame.column("a").values.tolist() == list(range(12))


def test_small_blocks_go_to_the_row_reader(tmp_path, monkeypatch):
    monkeypatch.setattr(io_csv, "_GRID_MIN_BYTES", 1 << 13)
    path = _write(str(tmp_path), "s.csv", b"a,b\n1,2\n3,4\n")
    assert io_csv._Grid.of(b"1,2\n3,4\n", 2) is None
    assert _rows(read_csv(path)) == [(1, 2), (3, 4)]


def test_declared_int_dtype_takes_the_digit_kernel_or_promotes(tmp_path):
    path = _write(str(tmp_path), "d.csv", b"a,b\n1,2\n-03,\n5,7\n")
    frame = read_csv(path, dtype={"a": "int", "b": "int"})
    assert frame.column("a").values.tolist() == [1, -3, 5]
    assert frame.column("a").values.dtype == np.int64
    # NA present: promoted to float, as the cell path always did
    assert frame.column("b").values.dtype == np.float64
    assert _rows(frame[["b"]]) == [(2.0,), (None,), (7.0,)]


# -- JSONL ----------------------------------------------------------------------


def _records(lines):
    return [
        tuple(record.get(name) for name in HEADER)
        for record in map(json.loads, lines)
    ]


@given(text_files(json_lines), st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_jsonl_partitions_equal_the_oracle(file, nrows):
    body, cuts = file
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "t.jsonl", body)
        whole = _rows(read_jsonl(path, columns=HEADER))
        assert whole == _records(oracle_jsonl_lines(path, (0, len(body))))
        assert _rows(read_jsonl(path, columns=HEADER, nrows=nrows)) == whole[:nrows]
        stitched = []
        for rng in _tiles(cuts, 0, len(body)):
            expected = _records(oracle_jsonl_lines(path, rng))
            got = read_jsonl(path, columns=HEADER, byte_range=rng)
            assert _rows(got) == expected
            assert _rows(read_jsonl(
                path, columns=HEADER, byte_range=rng, nrows=nrows
            )) == expected[:nrows]
            stitched += expected
        assert stitched == whole


@pytest.mark.parametrize("bad", ['{"a": 1', '{"a": 1},{"a": 2}', "]"])
def test_jsonl_malformed_line_raises_like_the_line_parser(tmp_path, bad):
    path = _write(
        str(tmp_path), "bad.jsonl",
        ('{"a": 0}\n' + bad + '\n{"a": 3}\n').encode(),
    )
    with pytest.raises(json.JSONDecodeError) as oracle:
        [json.loads(line) for line in oracle_jsonl_lines(path, (0, 1 << 20))]
    with pytest.raises(json.JSONDecodeError) as got:
        read_jsonl(path)
    assert str(got.value) == str(oracle.value)
