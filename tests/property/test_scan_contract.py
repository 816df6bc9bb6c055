"""One scan contract: a filtered, projected read is the unfiltered read
filtered afterwards, and it never holds the two side by side.

Every format (CSV, JSONL, hive dataset, ``.lfc``) hands the columns a
read needs to :meth:`DataSource.assemble` as builders, which builds the
predicate's columns, computes the mask and then builds, filters and
drops one column at a time.  For hypothesis tables in each format at
several partition sizes:

(a) ``read_partition(part, columns, predicate)`` equals the oracle
    ``full[predicate.mask(full)][columns]``, ``full`` the unfiltered
    ``read_partition(part)``, in column order,
    values, dtypes, categories and index labels -- including tables
    whose only ``""``, only non-int cell or only occurrence of a
    category value sits in a row the predicate drops (typing and
    category sets see every row);
(b) the read's tracked peak is at most what it returns, plus the
    predicate's unfiltered columns, plus the largest single column's
    build (a JSON-decoded column cast to a ``dtype`` is built beside
    its cast).
    A read that builds the whole unfiltered frame and then filters it
    holds both and breaks (b).
"""

import copy
import csv
import gc
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import io_csv
from repro.frame.io_csv import read_csv
from repro.io.columnar import ColumnarSource, write_columnar
from repro.io.csv_source import CsvSource
from repro.io.dataset import DatasetSource
from repro.io.jsonl import JsonlSource
from repro.io.predicate import Predicate, required_read_columns
from repro.memory.manager import current_memory_manager

HEADER = ["g", "i", "s", "f", "k"]

#: a row the predicates below tend to drop (``g == 1``) carries the
#: table's only odd cell of one kind
SPECIAL = {
    "empty": {"i": None},  # the only "" / null in an int column
    "text": {"i": "x"},  # the only non-int cell
    "category": {"s": "zz"},  # the only row of a category value
    "empty_s": {"s": None},  # the only NA in a string column
}

TERMS = [
    {"column": "g", "op": "!=", "value": 1},
    {"column": "g", "op": "==", "value": 0},
    {"column": "g", "op": ">=", "value": 2},
    {"column": "g", "op": "isin", "values": [0, 3]},
    {"column": "s", "op": "==", "value": "a"},
    {"column": "k", "op": "<=", "value": 1},
    {"column": "f", "op": "between", "low": -100.0, "high": 500.0},
    {"op": "not", "term": [{"column": "g", "op": "==", "value": 1}]},
    {"op": "or", "terms": [[{"column": "g", "op": "==", "value": 0}],
                           [{"column": "s", "op": "==", "value": "b"}]]},
]

plain_rows = st.lists(st.fixed_dictionaries({
    "g": st.sampled_from([0, 2, 3]),
    "i": st.integers(-99, 99),
    "s": st.sampled_from(["a", "b", "c", "é"]),
    "f": st.floats(-1e3, 1e3).map(lambda x: round(x, 2)),
    "k": st.integers(0, 2),
}), max_size=40)

specials = st.lists(
    st.tuples(st.sampled_from(sorted(SPECIAL)), st.integers(0, 1 << 10)),
    max_size=3,
)

predicates = st.one_of(
    st.none(),
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=2).map(Predicate),
)

projections = st.one_of(
    st.none(), st.lists(st.sampled_from(HEADER), unique=True, max_size=4),
)


def _table(rows, extra):
    """``rows`` with each special row (``g == 1``) spliced in."""
    rows = [dict(row) for row in rows]
    for kind, at in extra:
        row = {"g": 1, "i": 7, "s": "b", "f": 0.5, "k": at % 3}
        row.update(SPECIAL[kind])
        rows.insert(at % (len(rows) + 1), row)
    return rows


def _write_csv(path, rows, names):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        writer.writerows([row[n] for n in names] for row in rows)


def _write_jsonl(path, rows, names):
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps({n: row[n] for n in names}) + "\n")


def _sources(directory, rows, fmt, size, dtype):
    """The table as a source of ``fmt``, cut at about ``size``."""
    if fmt == "csv":
        path = os.path.join(directory, "t.csv")
        _write_csv(path, rows, HEADER)
        return CsvSource(path, partition_bytes=size, dtype=dtype)
    if fmt == "jsonl":
        path = os.path.join(directory, "t.jsonl")
        _write_jsonl(path, rows, HEADER)
        return JsonlSource(path, partition_bytes=size, dtype=dtype)
    if fmt == "lfc":
        path = os.path.join(directory, "t.csv")
        _write_csv(path, rows, HEADER)
        lfc = os.path.join(directory, "t.lfc")
        write_columnar(read_csv(path, dtype=dtype), lfc,
                       row_group_rows=max(1, size // 8))
        return ColumnarSource(lfc)
    root = os.path.join(directory, "ds")
    leaf = "csv" if size % 2 else "jsonl"
    for key in sorted({row["k"] for row in rows}):
        leaf_dir = os.path.join(root, f"k={key}")
        os.makedirs(leaf_dir)
        write = _write_csv if leaf == "csv" else _write_jsonl
        write(os.path.join(leaf_dir, f"part-0.{leaf}"),
              [row for row in rows if row["k"] == key], HEADER[:-1])
    return DatasetSource(root, dtype=dtype)


def _oracle(full, columns, predicate):
    frame = full if predicate is None else full[predicate.mask(full)]
    if columns is None:
        return frame
    return frame[[c for c in frame.columns if c in set(columns)]]


def _cells(values):
    return [("nan",) if isinstance(v, float) and v != v else v
            for v in values.tolist()]


def assert_identical(got, want):
    assert got.columns == want.columns
    assert len(got) == len(want)
    assert got.index.to_array().tolist() == want.index.to_array().tolist()
    for name in want.columns:
        a, b = got.column(name), want.column(name)
        assert a.values.dtype == b.values.dtype, name
        assert _cells(a.values) == _cells(b.values), name
        assert (a.categories is None) == (b.categories is None), name
        if b.categories is not None:
            assert a.categories.tolist() == b.categories.tolist(), name


def measured_read(source, part, columns, predicate):
    """``(frame, peak, kept)``: the read, its tracked peak above the
    bytes live before it, and what it leaves live."""
    manager = current_memory_manager()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = manager.live
        manager.reset_peak()
        frame = source.read_partition(part, columns=columns,
                                      predicate=predicate)
        return frame, manager.peak - before, manager.live - before
    finally:
        if enabled:
            gc.enable()


def _decoded_sizes(source, part, full):
    """Bytes of each column's build.  A JSON-decoded column is cast to
    its ``dtype`` after decoding, so its build holds both."""
    sizes = {name: full.column(name).nbytes for name in full.columns}
    if source.options.get("dtype") and _decodes_json(source, part):
        plain = copy.copy(source)
        plain.options = {**source.options, "dtype": None}
        uncast = plain.read_partition(part)
        for name in source.options["dtype"]:
            if name in sizes:
                sizes[name] += uncast.column(name).nbytes
    return sizes


def _decodes_json(source, part):
    return isinstance(source, JsonlSource) or part.path.endswith(".jsonl")


def check_source(source, columns, predicate):
    for part in source.partitions():
        got, peak, kept = measured_read(source, part, columns, predicate)
        full = source.read_partition(part)
        assert_identical(got, _oracle(full, columns, predicate))
        read = required_read_columns(columns, predicate, source.schema())
        sizes = {name: full.column(name).nbytes for name in full.columns}
        builds = _decoded_sizes(source, part, full)
        pred = predicate.columns() if predicate is not None else ()
        bound = (kept + sum(sizes[c] for c in pred)
                 + max((builds[c] for c in (read or sizes)), default=0))
        assert peak <= bound, (part.index, peak, kept, sizes)


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "dataset", "lfc"])
@given(
    rows=plain_rows,
    extra=specials,
    columns=projections,
    predicate=predicates,
    size=st.sampled_from([33, 64, 255, 1 << 20]),
    dtype=st.sampled_from([None, {"s": "category"}]),
    grid=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_filtered_read_is_the_read_filtered(tmp_path_factory, fmt, rows,
                                           extra, columns, predicate, size,
                                           dtype, grid):
    rows = _table(rows, extra)
    if fmt == "dataset" and not rows:
        return  # a dataset with no leaf is no dataset
    directory = str(tmp_path_factory.mktemp(fmt))
    # ``grid``: tiny files through the byte-grid kernel too
    floor = io_csv._GRID_MIN_BYTES
    io_csv._GRID_MIN_BYTES = 0 if grid else floor
    try:
        check_source(_sources(directory, rows, fmt, size, dtype),
                     columns, predicate)
    finally:
        io_csv._GRID_MIN_BYTES = floor


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "dataset", "lfc"])
def test_dropped_rows_still_type_the_columns(tmp_path, fmt):
    """The predicate drops the rows holding the only "" / non-int cell /
    category value: the survivors keep the types and categories those
    rows gave the whole read."""
    rows = _table([{"g": 0, "i": n, "s": "a", "f": 1.5, "k": n % 3}
                   for n in range(30)],
                  [("empty", 3), ("text", 9), ("category", 21)])
    source = _sources(str(tmp_path), rows, fmt, 1 << 20, {"s": "category"})
    predicate = Predicate([{"column": "g", "op": "!=", "value": 1}])
    got = [source.read_partition(p, columns=["i", "s"], predicate=predicate)
           for p in source.partitions()]
    assert sum(len(frame) for frame in got) == 30
    # the special rows share one hive key: one partition holds them all
    assert any(frame.column("i").values.dtype == object for frame in got)
    if fmt != "lfc":  # a columnar file stores the category decoded
        assert any("zz" in frame.column("s").categories.tolist()
                   for frame in got)
    check_source(source, ["i", "s"], predicate)


def test_a_filtered_read_peaks_at_its_output(tmp_path):
    """Four columns, a 1-in-4 predicate on one, three projected: the
    read never holds the unfiltered frame next to its filtered copy."""
    path = str(tmp_path / "t.csv")
    n = 4000
    _write_csv(path, [{"g": r % 4, "i": r, "s": f"s{r % 7}", "f": r / 4,
                       "k": r % 3} for r in range(n)], HEADER)
    source = CsvSource(path)
    predicate = Predicate([{"column": "g", "op": "==", "value": 0}])
    (part,) = source.partitions()
    frame, peak, kept = measured_read(source, part, ["i", "f", "k"],
                                      predicate)
    assert len(frame) == n // 4
    assert frame.index.to_array().tolist() == list(range(0, n, 4))
    # the g column and its mask, then one 8-byte column beside the output
    assert peak <= kept + 8 * n + n + 8 * n
    assert np.array_equal(frame.column("i").values, np.arange(0, n, 4))
