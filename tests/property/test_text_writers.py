"""The column-at-a-time writers against row-at-a-time reference encoders.

``write_csv`` / ``write_jsonl`` tokenize each column once (per dtype
kind) and join rows of tokens; ``write_dataset`` encodes the payload
once and hands each leaf its rows' slice; the ``.lfc`` dictionary
encoder factorizes a chunk through one dict.  The encoders they
replaced live on here as references, and the bytes must be equal:

- CSV: stdlib ``csv.writer().writerows`` over the cells a writer used
  to hand it (NA as ``None``, datetimes as ``YYYY-MM-DD HH:MM:SS``,
  mixed object cells through the old scalar rule);
- JSONL: ``json.JSONEncoder().encode`` of one dict per row;
- hive dataset: each leaf as the reference writes the ``take`` of the
  leaf's rows;
- ``.lfc``: the file written with the per-cell dictionary loop.
"""

import csv
import datetime
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import DataFrame
from repro.frame.column import Column
from repro.frame.io_csv import write_csv
from repro.io import columnar, write_columnar, write_dataset, write_jsonl
from repro.io.fs import compress_chunk


# -- reference encoders -------------------------------------------------------


def reference_cells(values: np.ndarray, scalar) -> list:
    """A column as the row writers took it: NA as ``None``, datetimes as
    strings, an object column of anything but ``str`` / ``None``
    through ``scalar`` cell by cell."""
    kind = values.dtype.kind
    if kind == "M":
        text = np.datetime_as_string(values.astype("datetime64[s]")).tolist()
        return [None if t == "NaT" else t.replace("T", " ") for t in text]
    if kind == "f":
        return np.where(np.isnan(values), None, values.astype(object)).tolist()
    cells = values.tolist()
    if kind == "O" and not set(map(type, cells)) <= {str, type(None)}:
        return [scalar(value) for value in cells]
    return cells


def csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)) and np.isnan(value):
        return ""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return ""
        return str(value.astype("datetime64[s]")).replace("T", " ")
    return str(value)


def json_scalar(value):
    if value is None:
        return None
    if isinstance(value, (np.floating, float)):
        return None if np.isnan(value) else float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return None
        return str(value.astype("datetime64[s]")).replace("T", " ")
    return str(value)


def reference_csv(frame: DataFrame, index: bool = False) -> str:
    header = frame.columns
    arrays = [frame.column(name).to_array() for name in header]
    if index:
        header = ["index", *header]
        arrays.insert(0, frame.index.to_array())
    cells = [reference_cells(values, csv_scalar) for values in arrays]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*cells))
    return out.getvalue()


def reference_jsonl(frame: DataFrame) -> str:
    names = frame.columns
    cells = [reference_cells(frame.column(name).to_array(), json_scalar)
             for name in names]
    encode = json.JSONEncoder().encode
    return "".join(encode(dict(zip(names, row))) + "\n"
                   for row in zip(*cells))


_real_encode_chunk = columnar._encode_chunk


def reference_encode_chunk(arr: np.ndarray, codec):
    """``_encode_chunk`` with the per-cell dictionary loop for objects."""
    if arr.dtype.kind in "iubfM":
        return _real_encode_chunk(arr, codec)
    is_null = columnar._is_null
    meta = {"codec": codec or "none", "min": None, "max": None,
            "null_count": 0}
    values = list(arr)
    if all(isinstance(v, str) or is_null(v) for v in values):
        categories, index = [], {}
        codes = np.empty(len(values), dtype=np.int32)
        nulls = 0
        for i, value in enumerate(values):
            if is_null(value):
                codes[i] = -1
                nulls += 1
                continue
            code = index.get(value)
            if code is None:
                code = len(categories)
                index[value] = code
                categories.append(value)
            codes[i] = code
        meta.update(encoding="dict", dtype="object", dict=categories,
                    null_count=nulls,
                    mem_bytes=int(codes.nbytes)
                    + sum(len(c) for c in categories))
        if categories:
            meta["min"] = min(categories)
            meta["max"] = max(categories)
        payload = codes.tobytes()
    else:
        cleaned = [None if is_null(v) else v for v in values]
        payload = json.dumps(cleaned).encode("utf-8")
        meta.update(encoding="json", dtype="object", mem_bytes=len(payload),
                    null_count=sum(1 for v in cleaned if v is None))
    return compress_chunk(payload, codec), meta


def read_text(path: str) -> str:
    with open(path, newline="") as f:
        return f.read()


# -- frames -------------------------------------------------------------------

NASTY = ["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "line\r\nbreak",
         "é", "日本", "%s", "\\", "\t", "x"]
texts = st.one_of(st.sampled_from(NASTY),
                  st.text(alphabet=',"\r\n aé日\\%\x7f', max_size=5))
floats = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]),
                   st.floats(allow_nan=True, allow_infinity=True))
datetimes = st.one_of(
    st.none(), st.datetimes(min_value=datetime.datetime(1900, 1, 1),
                            max_value=datetime.datetime(2200, 1, 1)))
mixed = st.one_of(st.none(), st.just(float("nan")), st.booleans(),
                  st.integers(-10**6, 10**6), floats, texts)


def objects(cells: list) -> np.ndarray:
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out


def _column(kind: str, n: int):
    """A strategy for one column of ``n`` cells of the given kind."""
    def of(cells, make):
        return st.lists(cells, min_size=n, max_size=n).map(make)

    if kind == "int":
        return of(st.integers(-2**63, 2**63 - 1),
                  lambda v: Column(np.array(v, dtype=np.int64)))
    if kind == "uint":
        return of(st.integers(0, 2**64 - 1),
                  lambda v: Column(np.array(v, dtype=np.uint64)))
    if kind == "bool":
        return of(st.booleans(), lambda v: Column(np.array(v, dtype=bool)))
    if kind == "float":
        return of(floats, lambda v: Column(np.array(v, dtype=np.float64)))
    if kind == "datetime":
        return of(datetimes, lambda v: Column(np.array(
            ["NaT" if d is None else d.isoformat() for d in v],
            dtype="datetime64[ns]")))
    if kind == "category":
        return of(st.one_of(st.none(), texts),
                  Column.from_strings_as_category)
    if kind == "strings":
        return of(st.one_of(st.none(), st.just(float("nan")), texts),
                  lambda v: Column(objects(v)))
    return of(mixed, lambda v: Column(objects(v)))


KINDS = ["int", "uint", "bool", "float", "datetime", "category", "strings",
         "mixed"]


@st.composite
def frames(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    names = draw(st.lists(texts, min_size=len(kinds), max_size=len(kinds),
                          unique=True))
    frame = DataFrame.from_columns(
        {name: draw(_column(kind, n)) for name, kind in zip(names, kinds)})
    if n and draw(st.booleans()):  # an index that is not 0..n-1
        frame = frame.take(np.array(draw(st.permutations(range(n)))))
    return frame


# -- properties ---------------------------------------------------------------


@given(frames(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_csv_equals_csv_writer(frame, index):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(frame, path, index=index)
        assert read_text(path) == reference_csv(frame, index)


@given(frames())
@settings(max_examples=200, deadline=None)
def test_jsonl_equals_per_row_encoder(frame):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        write_jsonl(frame, path)
        assert read_text(path) == reference_jsonl(frame)


@given(frames(), st.lists(st.integers(0, 3), min_size=12, max_size=12),
       st.sampled_from(["csv", "jsonl"]))
@settings(max_examples=100, deadline=None)
def test_dataset_leaves_equal_per_leaf_takes(frame, keys, fmt):
    n = len(frame)
    frame = DataFrame.from_columns(
        {**{name: frame.column(name) for name in frame.columns},
         "part": Column(np.array(keys[:n], dtype=np.int64))})
    reference = reference_jsonl if fmt == "jsonl" else reference_csv
    payload = frame[[c for c in frame.columns if c != "part"]]
    values = frame.column("part").to_array()
    with tempfile.TemporaryDirectory() as tmp:
        leaves = write_dataset(frame, tmp, partition_on="part", fmt=fmt)
        assert len(leaves) == len(set(values.tolist()))
        for leaf in leaves:
            value = int(os.path.basename(os.path.dirname(leaf))[5:])
            piece = payload.take(np.nonzero(values == value)[0])
            assert read_text(leaf) == reference(piece)


@given(frames(), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_lfc_equals_per_cell_dictionary_encoder(frame, group_rows):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.lfc"), os.path.join(tmp, "want.lfc")
        write_columnar(frame, got, row_group_rows=group_rows)
        with mock.patch.object(columnar, "_encode_chunk",
                               reference_encode_chunk):
            write_columnar(frame, want, row_group_rows=group_rows)
        with open(got, "rb") as f, open(want, "rb") as g:
            assert f.read() == g.read()


# -- the edges, spelled out ---------------------------------------------------


@pytest.mark.parametrize("cells", [
    ["", "", ""], [None, "a", None], [np.nan, "b"], ["\n", ""],
])
def test_single_column_of_empty_cells(cells, tmp_path):
    """``csv.writer`` writes a row that is one empty field as ``""``;
    the header follows the same rule."""
    frame = DataFrame.from_columns(
        {"": Column(objects(cells))})
    path = str(tmp_path / "t.csv")
    write_csv(frame, path)
    assert read_text(path) == reference_csv(frame)
    assert read_text(path).startswith('""\r\n')


@pytest.mark.parametrize("index", [False, True])
def test_no_rows_and_no_columns(index, tmp_path):
    empty_rows = DataFrame.from_columns(
        {"a": Column(np.array([], dtype=np.int64))})
    no_columns = DataFrame({})
    for frame in (empty_rows, no_columns):
        write_csv(frame, str(tmp_path / "t.csv"), index=index)
        assert read_text(str(tmp_path / "t.csv")) == reference_csv(frame,
                                                                   index)
        write_jsonl(frame, str(tmp_path / "t.jsonl"))
        assert read_text(str(tmp_path / "t.jsonl")) == reference_jsonl(frame)
