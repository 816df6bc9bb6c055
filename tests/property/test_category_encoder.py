"""The dict category encoder and the numpy block checks against their oracles.

``Column.from_strings_as_category`` factorizes string cells through a
dict and sorts only the distinct values; the ``np.unique`` body it
replaced lives on here as the oracle, and the two must agree bit for
bit: codes, categories, dtypes and tracked bytes.  The CSV reader feeds
the encoder its raw cells, ``""`` read as NA, so ``read_csv(dtype=
{c: "category"})`` answers to the same oracle over the rows a
``csv.reader`` sees, at any block size and either line terminator.

``read_line_blocks`` hands out views of one over-read buffer per block,
and a line longer than the over-read reads its block again; ``_Grid.of``
checks those views (``\\r`` count, ASCII, quote and NUL) with numpy: a
stray ``\\r`` inside a field still sends the block to the row reader,
and malformed UTF-8 raises whether or not its column is wanted.
"""

import csv
import io
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import io_csv
from repro.frame.column import NA_CODE, Column
from repro.frame.io_csv import read_csv, read_line_blocks


def oracle_category(values) -> Column:
    """The ``np.unique`` encoder (the body this change replaced)."""
    values = np.asarray(values, dtype=object)
    mask = np.array([v is None for v in values], dtype=bool)
    filled = np.where(mask, "", values)
    categories, codes = np.unique(filled.astype(object), return_inverse=True)
    codes = codes.astype(np.int32)
    codes[mask] = NA_CODE
    return Column(codes, categories=categories)


def _assert_same_encoding(got: Column, expected: Column):
    assert got.values.dtype == expected.values.dtype == np.int32
    assert got.values.tolist() == expected.values.tolist()
    assert got.categories.dtype == expected.categories.dtype == object
    assert got.categories.tolist() == expected.categories.tolist()
    assert got.nbytes == expected.nbytes


# -- the encoder ------------------------------------------------------------------

strings = st.one_of(
    st.sampled_from(["", "a", "b", "ab", "é", "日本", "Z", " a"]),
    st.text(alphabet='az é日\r"', max_size=4),
)
cells = st.lists(st.one_of(st.none(), strings), max_size=40)


@given(cells)
@settings(max_examples=200, deadline=None)
def test_encoder_equals_np_unique(values):
    _assert_same_encoding(
        Column.from_strings_as_category(values), oracle_category(values))
    # the object-array form other callers pass
    _assert_same_encoding(
        Column.from_strings_as_category(np.asarray(values, dtype=object)),
        oracle_category(values))


@given(st.lists(strings, max_size=40))
@settings(max_examples=200, deadline=None)
def test_csv_cells_with_empty_as_na_equal_np_unique(values):
    """What the CSV reader passes: raw cells, ``""`` read as NA."""
    _assert_same_encoding(
        Column.from_strings_as_category(values, na_value=""),
        oracle_category([v or None for v in values]))


@pytest.mark.parametrize("values", [
    [],
    ["only"],
    ["only"] * 5,
    [None, None],
    ["", ""],
    ["", None, "x", ""],
    ["ünï", "日本", "é", "ünï", None],
    ["b", "a", "b", None, "c", "a"],
])
def test_encoder_edge_cases(values):
    _assert_same_encoding(
        Column.from_strings_as_category(values), oracle_category(values))


@pytest.mark.parametrize("values", [
    [3, 1, 2, 3],
    [2.5, -1.0, 2.5],
    ["a", 1],  # unorderable: raises exactly as np.unique does
])
def test_cells_that_are_not_strings_keep_np_unique(values):
    try:
        expected = oracle_category(values)
    except TypeError:
        with pytest.raises(TypeError):
            Column.from_strings_as_category(values)
        return
    _assert_same_encoding(
        Column.from_strings_as_category(values), expected)
    _assert_same_encoding(
        Column.from_strings_as_category(np.asarray(values, dtype=object)),
        expected)


# -- read_csv with a category dtype ----------------------------------------------


@pytest.fixture(autouse=True, scope="module")
def _grid_at_any_size():
    """These files are tiny: let the grid kernel take them anyway."""
    floor, io_csv._GRID_MIN_BYTES = io_csv._GRID_MIN_BYTES, 0
    yield
    io_csv._GRID_MIN_BYTES = floor


def _write(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(data)
    return path


text_cells = st.sampled_from(["", "x", "ab c", "é", "日本", "-", "7", "x"])


@given(
    st.lists(st.tuples(text_cells, text_cells), max_size=30),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from([7, 40, 1 << 20]),
)
@settings(max_examples=120, deadline=None)
def test_read_csv_category_equals_the_oracle(tmp_path_factory, rows, eol,
                                             block_bytes):
    directory = str(tmp_path_factory.mktemp("cat"))
    text = "".join(f"{a},{b}{eol}" for a, b in [("a", "b"), *rows])
    path = _write(directory, "c.csv", text.encode("utf-8"))
    parsed = list(csv.reader(io.StringIO(text, newline="")))[1:]
    original = io_csv.read_line_blocks
    io_csv.read_line_blocks = partial(read_line_blocks, block_bytes=block_bytes)
    try:
        frame = read_csv(path, dtype={"a": "category", "b": "category"})
    finally:
        io_csv.read_line_blocks = original
    for pos, name in enumerate(["a", "b"]):
        _assert_same_encoding(
            frame.column(name),
            oracle_category([row[pos] or None for row in parsed]))


# -- the block checks -----------------------------------------------------------------


@pytest.mark.parametrize("block_bytes", [1, 3, 8, 1 << 20])
def test_a_line_longer_than_the_slack_reads_its_block_again(
    tmp_path, monkeypatch, block_bytes
):
    body = b"".join(b"x" * n + b"\n" for n in (0, 5, 40, 3, 0)) + b"tail"
    path = _write(str(tmp_path), "long.txt", body)
    expected = [
        b"".join(read_line_blocks(path, (start, len(body))))
        for start in range(len(body))
    ]
    monkeypatch.setattr(io_csv, "_LINE_SLACK", 1)
    blocks = list(read_line_blocks(path, block_bytes=block_bytes))
    assert all(bytes(block).endswith(b"\n") for block in blocks[:-1])
    assert b"".join(blocks) == body
    assert expected == [
        b"".join(read_line_blocks(path, (start, len(body)), block_bytes))
        for start in range(len(body))
    ]


def _read_or_error(path, **kwargs):
    try:
        frame = read_csv(path, **kwargs)
    except IndexError as exc:
        return type(exc)
    return {name: frame.column(name).values.tolist() for name in frame.columns}


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_stray_carriage_return_sends_the_block_to_the_row_reader(
    tmp_path, monkeypatch, eol
):
    rows = [f"{i},s{i}" for i in range(12)]
    rows[8] = "8\r,s8"  # a lone "\r" is a line break to the row reader
    data = eol.join(["a,b", *rows, ""]).encode()
    path = _write(str(tmp_path), "cr.csv", data)
    assert io_csv._Grid.of(data, 2) is None
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
    got = [_read_or_error(path), _read_or_error(path, usecols=["a"])]
    assert seen[0] and not seen[-1]
    monkeypatch.setattr(io_csv, "_GRID_MIN_BYTES", 1 << 30)
    np.testing.assert_equal(
        got, [_read_or_error(path), _read_or_error(path, usecols=["a"])])


@pytest.mark.parametrize("grid_floor", [0, 1 << 30])
def test_malformed_utf8_raises_in_an_unwanted_column(
    tmp_path, monkeypatch, grid_floor
):
    monkeypatch.setattr(io_csv, "_GRID_MIN_BYTES", grid_floor)
    data = b"a,b\n" + b"".join(b"%d,x%d\n" % (i, i) for i in range(20))
    data = data.replace(b"x7", b"x\xff7")
    path = _write(str(tmp_path), "bad.csv", data)
    with pytest.raises(UnicodeDecodeError):
        read_csv(path, usecols=["a"])
