"""Block-at-a-time text decode equals the row-at-a-time reader it replaced.

``frame/io_csv.py`` and ``io/jsonl.py`` used to read a byte range one
``readline`` / ``decode`` / parser call per row.  Those loops live on
here, verbatim, as the oracles: for generated CSV / JSONL text (quoted
commas and quotes, CRLF, blank lines, a missing trailing newline,
multi-byte UTF-8, empty fields) and random cut points,

(a) the partitions, concatenated, are the whole-file read,
(b) each partition is the oracle's rows, row for row,
(c) ``nrows``, ``usecols`` order and ragged rows behave as before.
"""

import csv
import io
import json
import math
import os
import tempfile
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import io_csv
from repro.frame.io_csv import read_csv, read_line_blocks
from repro.io.jsonl import read_jsonl

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
