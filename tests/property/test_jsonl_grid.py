"""The JSONL byte grid and the ``.lfc`` row-group runs against the paths
they replaced.

``io/jsonl.py`` types the values of a *regular* block (one object per
line, the same keys in the same order, no escape, no nested value) from
the byte spans of its tokens, and hands any other block to one
``json.loads`` over its lines.  That json path is the oracle here: with
the grid switched off (``_Objects.of`` answering ``None``) every read
is what the reader did before the grid.  For generated files -- the
writer's, and hand-made ones with compact and spaced separators,
reordered, missing and duplicate keys, nested values, escapes, tabs,
CRLF, blank lines, non-ASCII text, ``-0``, exponents, ``NaN`` /
``Infinity``, ints of 19+ digits, bools with ``null``, mixed kinds and
number tokens ``json.loads`` rejects -- every projection of every
partitioning, cut into small blocks so one range mixes grid blocks and
parsed ones, is the oracle's read bit for bit (dtype, values and
tracked bytes), or raises the same exception type.  A block the writer
makes is regular, so it never reaches ``_parse_lines``.

``ColumnarSource.read_partition`` fetches a row group's chunks as the
runs :func:`~repro.io.columnar.chunk_runs` makes of them, and those are
exactly the ranges ``prefetch_ranges`` announces: a recording store
sees one read per run, no run reads more than twice the bytes its
chunks need, and in the benchmark table's shape a projection is one
run per row group.
"""

import contextlib
import json
import os
import tempfile
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import DataFrame, io_csv
from repro.io import jsonl, memory_store
from repro.io.columnar import ColumnarSource, chunk_runs, write_columnar
from repro.io.jsonl import read_jsonl, write_jsonl
from repro.io.prefetch import range_cache


@pytest.fixture(autouse=True, scope="module")
def _grid_at_any_size():
    """These files are tiny: let the grid take them anyway."""
    floor, io_csv._GRID_MIN_BYTES = io_csv._GRID_MIN_BYTES, 0
    yield
    io_csv._GRID_MIN_BYTES = floor


def json_path(path, **options):
    """The oracle: the reader with every block sent to ``json.loads``."""
    with mock.patch.object(jsonl._Objects, "of",
                           classmethod(lambda cls, block: None)):
        return read_jsonl(path, **options)


def outcome(read):
    """A read's frame as comparable data -- per column its dtype, its
    values (floats by their bits, objects by type and ``repr``) and its
    tracked bytes -- or the type of what it raised."""
    try:
        frame = read()
    except Exception as exc:  # the oracle raises too: compared by type
        return type(exc)
    columns = []
    for name in frame.columns:
        column = frame.column(name)
        values = column.values
        if values.dtype.kind == "f":
            cells = values.view(np.int64).tolist()
        elif values.dtype.kind == "O":
            cells = [(type(v).__name__, repr(v)) for v in values.tolist()]
        else:
            cells = values.tolist()
        columns.append((name, values.dtype.str, cells, column.nbytes))
    return len(frame), columns


# -- files -------------------------------------------------------------------

#: "a" / "b" / "g" are as long as each other: only their bytes tell them
#: apart
KEYS = ["a", "b", "é", "c,d", "e:f", "g"]

#: number and literal tokens, ``json.loads``' edge cases among them
SPECIAL_NUMBERS = [
    "-0", "0", "-0.0", "0.0", "1e5", "1E-3", "-2.5e+10", "1e400", "5e-324",
    "12345678901234567890", "-9223372036854775808", "9223372036854775808",
    "123456789012345678", "NaN", "Infinity", "-Infinity",
]
#: tokens ``json.loads`` rejects
MALFORMED = ["01", "1.", ".5", "+1", "-", "1e", "-01", "00", "1.e5", "tru",
             "nul", "1.5.2", "1e5e5", "--1", "0x1"]

ints = st.integers(-10 ** 20, 10 ** 20).map(str)
floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
#: ``-?digits.digits`` around the 15 digits a double's mantissa holds
decimals = st.builds(
    lambda sign, whole, fraction: f"{sign}{whole}.{fraction}",
    st.sampled_from(["", "-"]), st.integers(0, 10 ** 9),
    st.integers(0, 10 ** 8).map(str).map(lambda text: text.zfill(
        len(text) + len(text) % 3)))
strings = st.builds(
    lambda text, ascii: json.dumps(text, ensure_ascii=ascii),
    st.text(alphabet='ab ,:{}[]"\\\té x', max_size=4), st.booleans())
plain_strings = st.text(alphabet="ab ,:{}[]é日x-", max_size=6).map(
    lambda text: '"' + text + '"')
bools = st.sampled_from(["true", "false"])
nested = st.sampled_from(['[1, 2]', '{"x": 1}', "[]", "{}", '["a"]'])

#: a column's tokens are mostly of one kind, so every typing path is hit
KINDS = {
    "int": ints,
    "float": st.one_of(floats, ints, decimals),
    "bool": bools,
    "string": st.one_of(plain_strings, strings),
    "special": st.sampled_from(SPECIAL_NUMBERS),
    "mixed": st.one_of(ints, floats, bools, plain_strings, nested,
                       st.sampled_from(SPECIAL_NUMBERS)),
}


@st.composite
def columns(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    null_rate = draw(st.sampled_from([0, 0, 0.3]))
    odd = draw(st.sampled_from([None] * 6 + ["malformed", "nested"]))
    return kind, null_rate, odd


@st.composite
def jsonl_files(draw):
    """Bytes of a JSONL file, mostly regular, with the irregularities
    the grid must hand to ``json.loads`` drawn at low rates."""
    n_keys = draw(st.integers(1, len(KEYS)))
    keys = draw(st.permutations(KEYS))[:n_keys]
    specs = [draw(columns()) for _ in keys]
    n_rows = draw(st.integers(0, 12))
    colon = draw(st.sampled_from([": ", ":"]))
    comma = draw(st.sampled_from([", ", ","]))
    eol = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    rare = st.sampled_from([False] * 12 + [True])
    lines = []
    for _ in range(n_rows):
        pairs = []
        for key, (kind, null_rate, odd) in zip(keys, specs):
            roll = draw(st.floats(0, 1))
            if roll < null_rate:
                token = "null"
            elif odd == "malformed" and draw(rare):
                token = draw(st.sampled_from(MALFORMED))
            elif odd == "nested" and draw(rare):
                token = draw(nested)
            else:
                token = draw(KINDS[kind])
            name = json.dumps(key, ensure_ascii=draw(
                st.sampled_from([False] * 6 + [True])))
            pairs.append((name, token))
        if draw(st.sampled_from([False] * 3 + [True])):
            pairs = draw(st.permutations(pairs))
        if pairs and draw(rare):
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        if pairs and draw(rare):
            pairs.append((pairs[0][0], draw(ints)))  # a duplicate key
        line_colon = draw(st.sampled_from([colon, " : ", ":\t"])) \
            if draw(rare) else colon
        line = "{" + comma.join(name + line_colon + token
                                for name, token in pairs) + "}"
        if draw(rare):
            line = draw(st.sampled_from([" ", "\t"])) + line
        lines.append(line)
        if draw(rare):
            lines.append("")  # a blank line
    body = eol.join(lines)
    if lines and not draw(rare):
        body += eol
    return body.encode("utf-8")


@st.composite
def cuts(draw, size):
    """Byte ranges tiling ``[0, size)``."""
    points = sorted(set(draw(st.lists(st.integers(0, size), max_size=3))))
    edges = [0] + [p for p in points if 0 < p < size] + [size]
    return list(zip(edges, edges[1:])) or [(0, 0)]


def projections(keys):
    return st.one_of(st.none(), st.lists(
        st.sampled_from(keys + ["absent"]), unique=True, max_size=4))


# -- the grid against the json path ------------------------------------------


@given(jsonl_files(), st.data())
@settings(max_examples=300, deadline=None)
def test_every_projection_and_partitioning_equals_the_json_path(body, data):
    block_bytes = data.draw(st.sampled_from([1 << 20, 24, 64, 200]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            jsonl, "read_line_blocks",
            partial(io_csv.read_line_blocks, block_bytes=block_bytes)):
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "wb") as f:
            f.write(body)
        ranges = data.draw(cuts(len(body)))
        for columns in [None, *data.draw(st.lists(projections(KEYS),
                                                  max_size=3))]:
            for byte_range in [None, *ranges]:
                read = partial(read_jsonl, path, columns=columns,
                               byte_range=byte_range)
                want = outcome(partial(json_path, path, columns=columns,
                                       byte_range=byte_range))
                assert outcome(read) == want, (columns, byte_range)


@given(jsonl_files())
@settings(max_examples=100, deadline=None)
def test_dtype_parse_dates_and_nrows_equal_the_json_path(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "wb") as f:
            f.write(body)
        for options in ({"dtype": {"a": "float64", "b": "object"}},
                        {"parse_dates": ["é"]}, {"nrows": 3}):
            assert outcome(partial(read_jsonl, path, **options)) == \
                outcome(partial(json_path, path, **options)), options


texts = st.text(alphabet="ab ,:{}[]-é日x", max_size=6)


@st.composite
def frames(draw):
    """Tables whose JSONL the grid takes whole: strings the writer
    spells without an escape."""
    n = draw(st.integers(1, 30))
    cols = {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(
            ["int", "float", "bool", "str", "str_na", "float_na"]),
            min_size=1, max_size=5))):
        if kind == "int":
            values = np.array(draw(st.lists(
                st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)))
        elif kind in ("float", "float_na"):
            values = np.array(draw(st.lists(st.floats(
                allow_nan=kind == "float_na"), min_size=n, max_size=n)),
                dtype=np.float64)
        elif kind == "bool":
            values = np.array(draw(st.lists(st.booleans(), min_size=n,
                                            max_size=n)))
        else:
            cells = draw(st.lists(
                st.one_of(texts, st.none()) if kind == "str_na" else texts,
                min_size=n, max_size=n))
            values = np.empty(n, dtype=object)
            values[:] = cells
        cols[f"c{i}"] = values
    return DataFrame(cols)


def _without_escapes(frame) -> bool:
    """The writer escapes non-ASCII text: such a table is not regular."""
    return all(
        all(v is None or v.isascii() for v in frame.column(c).values)
        for c in frame.columns if frame.column(c).values.dtype.kind == "O")


@given(frames(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_a_block_the_writer_makes_takes_the_grid(frame, n_parts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        write_jsonl(frame, path)
        for byte_range in [None, *io_csv.split_byte_ranges(path, n_parts)]:
            want = outcome(partial(json_path, path, byte_range=byte_range))
            if not _without_escapes(frame):
                assert outcome(partial(read_jsonl, path,
                                       byte_range=byte_range)) == want
                continue
            with mock.patch.object(jsonl, "_parse_lines",
                                   side_effect=AssertionError("json path")):
                got = outcome(partial(read_jsonl, path,
                                      byte_range=byte_range))
            assert got == want


def _bench_table(n: int) -> DataFrame:
    """The ``scan_formats`` benchmark table's shape."""
    rng = np.random.default_rng(0)
    columns = {
        "id": np.arange(n, dtype=np.int64),
        "region": rng.integers(0, 8, n),
        "value": np.round(rng.normal(50, 20, n), 2),
        "qty": rng.integers(1, 100, n),
        "price": np.round(rng.uniform(1, 500, n), 2),
    }
    for i in range(4):
        columns[f"pad_{i}"] = np.array(
            [f"p{i}-{j:08d}-{'x' * 24}" for j in range(n)], dtype=object)
    return DataFrame(columns)


def test_the_benchmark_table_takes_the_grid_at_the_real_floor(
        tmp_path, monkeypatch):
    monkeypatch.setattr(io_csv, "_GRID_MIN_BYTES", 1 << 13)
    path = str(tmp_path / "t.jsonl")
    write_jsonl(_bench_table(800), path)
    parts = io_csv.split_byte_ranges(path, 4)
    want = {
        (tuple(cols or ()), rng): outcome(partial(
            json_path, path, columns=cols, byte_range=rng))
        for cols in (None, ["id", "region", "qty"], ["region", "value"],
                     ["id", "value"])
        for rng in parts
    }
    with mock.patch.object(jsonl, "_parse_lines",
                           side_effect=AssertionError("json path")):
        for (cols, rng), expected in want.items():
            got = outcome(partial(read_jsonl, path,
                                  columns=list(cols) or None, byte_range=rng))
            assert got == expected
        assert jsonl.read_jsonl_header(path) == list(_bench_table(1).columns)


@pytest.mark.parametrize("line, error", [
    ('{"a": 01}', json.JSONDecodeError),
    ('{"a": 1.}', json.JSONDecodeError),
    ('{"a": .5}', json.JSONDecodeError),
    ('{"a": +1}', json.JSONDecodeError),
    ('{"a": 1, "b": 01}', json.JSONDecodeError),  # unread, still raises
])
def test_a_number_json_rejects_raises_wanted_or_not(tmp_path, line, error):
    path = str(tmp_path / "t.jsonl")
    with open(path, "w") as f:
        f.write('{"a": 1, "b": 2}\n' * 3 + line + "\n")
    for columns in (None, ["a"]):
        with pytest.raises(error):
            read_jsonl(path, columns=columns)


def test_keys_of_one_length_in_another_order_are_not_regular(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with open(path, "w") as f:
        f.write('{"a": 1, "b": 2}\n{"b": 3, "a": 4}\n')
    assert jsonl._Objects.of(open(path, "rb").read()) is None
    frame = read_jsonl(path)
    assert frame.column("a").values.tolist() == [1, 4]
    assert frame.column("b").values.tolist() == [2, 3]


def test_negative_zero_int_is_positive_in_a_float_column(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with open(path, "w") as f:
        f.write('{"a": -0, "b": -0}\n{"a": 1.5, "b": null}\n'
                '{"a": -0.0, "b": 2}\n')
    frame = read_jsonl(path)
    assert np.signbit(frame.column("a").values).tolist() == [False, False,
                                                             True]
    assert np.signbit(frame.column("b").values).tolist() == [False, False,
                                                             False]
    assert outcome(partial(read_jsonl, path)) == \
        outcome(partial(json_path, path))


# -- .lfc: one fetch per run -------------------------------------------------


@contextlib.contextmanager
def recorded_reads():
    """The ``(start, end)`` of every range read of a fresh memory store."""
    store = memory_store()
    store.reset()
    range_cache().clear()
    calls = []
    real = store.read_range

    def read_range(url, start, end):
        calls.append((start, end))
        return real(url, start, end)

    try:
        with mock.patch.object(store, "read_range", read_range):
            yield calls
    finally:
        store.reset()
        range_cache().clear()


@given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 16),
       st.lists(st.integers(0, 8), max_size=5), st.sampled_from([None,
                                                                 "gzip"]))
@settings(max_examples=100, deadline=None)
def test_a_row_group_is_read_as_its_runs(n_cols, n_rows, group_rows,
                                         picks, codec):
    frame = _bench_table(n_rows)
    frame = frame[list(frame.columns)[:n_cols]]
    names = list(frame.columns)
    wanted = sorted({names[p % n_cols] for p in picks},
                    key=names.index) or None
    url = "memory://grid/runs.lfc"
    with recorded_reads() as calls:
        write_columnar(frame, url, row_group_rows=group_rows, codec=codec)
        source = ColumnarSource(url)
        for part in source.partitions():  # the footer is read here
            del calls[:]
            got = source.read_partition(part, columns=wanted)
            expected = [(s, e) for _, s, e in source.prefetch_ranges(
                columns=wanted, partitions=[part])]
            assert calls == expected
            chunks = source.footer()["row_groups"][part.index]["chunks"]
            need = sum(chunks[n]["length"] for n in (wanted or names))
            assert sum(e - s for s, e in calls) <= 2 * need
            rows = slice(part.index * group_rows,
                         part.index * group_rows + len(got))
            for name in wanted or names:
                assert got.column(name).to_array().tolist() == \
                    frame.column(name).to_array()[rows].tolist()


def test_the_benchmark_projection_is_one_run_per_row_group():
    url = "memory://grid/bench.lfc"
    with recorded_reads() as calls:
        write_columnar(_bench_table(1600), url, row_group_rows=200)
        source = ColumnarSource(url)
        for columns in (["id", "value"], ["id", "region", "qty"],
                        ["region", "value"]):
            for part in source.partitions():
                chunks = source.footer()["row_groups"][part.index]["chunks"]
                (run,) = chunk_runs(chunks, columns)
                assert run[2] == sorted(columns, key=source.schema().index)
                del calls[:]
                source.read_partition(part, columns=columns)
                assert calls == [run[:2]]
