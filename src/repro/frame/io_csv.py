"""CSV reader/writer.

``read_csv`` exposes exactly the knobs LaFP's optimizer drives:

- ``usecols``      -- column-selection optimization (section 3.1),
- ``dtype``        -- metadata-driven types, including ``category``
                      (section 3.6),
- ``parse_dates``  -- datetime columns,
- ``nrows``        -- sampling for the metastore,
- ``byte_range``   -- partitioned reads for the Dask-like backend.

The unit of parsing is a block of lines, not a row.
:func:`read_line_blocks` returns the newline-aligned bytes of a byte
range (a row belongs to the range that holds its first byte), each block
is decoded once, one stdlib ``csv.reader`` (C-accelerated) runs over all
of a read's blocks, and batches of rows are transposed into columns with
``zip(*rows)``.  A whole-file read is the same code over the whole file.
Type inference tries int64 -> float64 -> object per column, mirroring
pandas defaults (dates stay strings unless ``parse_dates`` asks for
them -- the paper's metadata optimization exists precisely because
inference is this naive).
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import closing
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.dataframe import DataFrame
from repro.frame.dtypes import CategoricalDtype, is_categorical, normalize_dtype
from repro.frame.series import Series

#: bytes of text decoded and split at a time; bounds a read's transient
#: memory whatever the size of the range.
LINE_BLOCK_BYTES = 1 << 20

#: rows transposed into columns at a time.
_ROW_BATCH = 1 << 16


def read_csv(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[Dict[str, object]] = None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    byte_range: Optional[Tuple[int, int]] = None,
) -> DataFrame:
    """Read a CSV file into a :class:`DataFrame`."""
    header = read_header(path)
    if usecols is not None:
        unknown = [c for c in usecols if c not in header]
        if unknown:
            raise ValueError(f"usecols not in file: {unknown}")
        wanted = [c for c in header if c in set(usecols)]
    else:
        wanted = list(header)
    positions = [header.index(c) for c in wanted]

    raw = _read_raw_columns(path, byte_range, positions, nrows)

    dtype = dtype or {}
    parse_set = set(parse_dates or [])
    columns: Dict[str, Column] = {}
    for name, values in zip(wanted, raw):
        if name in parse_set:
            columns[name] = _parse_datetime(values)
        elif name in dtype:
            columns[name] = _convert_with_dtype(values, dtype[name])
        else:
            columns[name] = _infer_column(values)

    frame = DataFrame.from_columns(columns)
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def read_header(path: str) -> List[str]:
    """Column names from the first line."""
    with open(path, newline="") as f:
        return next(csv.reader(f))


def scan_partitions(path: str, n_partitions: int) -> List[Tuple[int, int]]:
    """Split the data region of a CSV into ~equal byte ranges.

    Ranges are aligned downstream to newline boundaries by the reader, so
    every row lands in exactly one partition.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.readline()  # header
        data_start = f.tell()
    n_partitions = max(1, n_partitions)
    span = max(1, (size - data_start) // n_partitions)
    ranges = []
    start = data_start
    for i in range(n_partitions):
        end = size if i == n_partitions - 1 else min(size, start + span)
        if start >= size:
            break
        ranges.append((start, end))
        start = end
    return ranges


def read_line_blocks(
    path: str,
    byte_range: Optional[Tuple[int, int]] = None,
    block_bytes: int = LINE_BLOCK_BYTES,
) -> Iterator[bytes]:
    """Yield the lines whose *first byte* lies in ``[start, end)``, as
    newline-aligned blocks of about ``block_bytes`` (``None``: the file).

    Standard partitioned-text convention: the line in progress at
    ``start`` belongs upstream unless the previous byte is a newline,
    and the last line may run past ``end``.  Every row of a file lands
    in exactly one of any set of ranges that tile it.
    """
    with open(path, "rb") as f:
        if byte_range is None:
            start, end = 0, os.fstat(f.fileno()).st_size
        else:
            start, end = byte_range
        if start > 0:
            f.seek(start - 1)
            if f.read(1) != b"\n":
                f.readline()  # finish the partial line; it belongs upstream
        pos = f.tell()
        while pos < end:
            block = f.read(min(block_bytes, end - pos))
            if not block:
                break
            if not block.endswith(b"\n"):
                block += f.readline()
            pos += len(block)
            yield block


def _read_raw_columns(
    path: str,
    byte_range: Optional[Tuple[int, int]],
    positions: List[int],
    nrows: Optional[int],
) -> List[List[str]]:
    """The fields at ``positions`` of every row of the range, by column.

    One reader runs over the lines of all blocks (terminators kept, so a
    quoted field may hold newlines); blank lines parse to ``[]`` and are
    skipped.
    """
    raw: List[List[str]] = [[] for _ in positions]
    need = max(positions, default=-1) + 1
    with closing(read_line_blocks(path, byte_range)) as blocks:
        rows = filter(None, csv.reader(chain.from_iterable(
            io.StringIO(block.decode("utf-8"), newline="")
            for block in blocks
        )))
        if byte_range is None:
            next(rows, None)  # header
        if nrows is not None:
            rows = islice(rows, nrows)
        while True:
            batch = list(islice(rows, _ROW_BATCH))
            if not batch:
                break
            if min(map(len, batch)) < need:
                # zip() would silently cut every column to the short row
                raise IndexError(
                    f"{path}: a row has fewer than {need} fields"
                )
            fields = list(zip(*batch))
            for out, pos in zip(raw, positions):
                out.extend(fields[pos])
    return raw


def _as_float64(values: List[str]) -> np.ndarray:
    """Parse as float64 with '' as NaN."""
    if "" in values:
        values = ["nan" if v == "" else v for v in values]
    return np.asarray(values, dtype=np.float64)


def _infer_column(values: List[str]) -> Column:
    """int64 -> float64 -> object inference with '' as NA."""
    has_empty = "" in values
    if not has_empty:
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except (ValueError, OverflowError):
            pass
    try:
        return Column(_as_float64(values))
    except ValueError:
        pass
    obj = np.asarray(values, dtype=object)
    if has_empty:
        obj = np.where(obj == "", None, obj)
    return Column(obj)


def _convert_with_dtype(values: List[str], dtype_spec) -> Column:
    target = normalize_dtype(dtype_spec)
    if is_categorical(target):
        arr = np.asarray(values, dtype=object)
        arr = np.where(arr == "", None, arr)
        col = Column.from_strings_as_category(arr)
        if isinstance(target, CategoricalDtype) and target.categories is not None:
            # Re-encode against the declared category set.
            return Column.from_values(col.to_array(), dtype=target)
        return col
    if target.kind == "f":
        return Column(_as_float64(values))
    if target.kind == "i":
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except ValueError:
            # NA present: silently promote, as pandas does for int columns.
            return Column(_as_float64(values))
    if target.kind == "M":
        return _parse_datetime(values)
    if target.kind == "b":
        arr = np.asarray(
            [v in ("True", "true", "1") for v in values], dtype=bool
        )
        return Column(arr)
    obj = np.asarray(values, dtype=object)
    obj = np.where(obj == "", None, obj)
    return Column(obj)


def _parse_datetime(values: List[str]) -> Column:
    if "" in values:
        values = ["NaT" if v == "" else v for v in values]
    return Column(np.asarray(values, dtype="datetime64[ns]"))


def to_datetime(data: Union[Series, Sequence[str]]) -> Series:
    """Parse strings (ISO format) into a datetime64 series."""
    if isinstance(data, Series):
        values = data.column.to_array()
        cleaned = ["NaT" if (v is None or v == "") else str(v) for v in values]
        return Series(
            Column(np.asarray(cleaned, dtype="datetime64[ns]")),
            index=data.index,
            name=data.name,
        )
    cleaned = ["NaT" if (v is None or v == "") else str(v) for v in data]
    return Series(Column(np.asarray(cleaned, dtype="datetime64[ns]")))


def write_csv(frame: DataFrame, path: str, index: bool = False) -> None:
    """Write a frame to CSV (NA as empty string, datetimes in ISO)."""
    header = frame.columns
    arrays = [frame.column(name).to_array() for name in header]
    if index:
        header = ["index", *header]
        arrays.insert(0, frame.index.to_array())
    # csv.writer renders None as "" and numbers with str()
    cells = [column_cells(values, _cell) for values in arrays]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def column_cells(values: np.ndarray, scalar) -> list:
    """A column as plain Python values for a text writer, by dtype kind:
    NA as ``None``, datetimes as ``YYYY-MM-DD HH:MM:SS`` strings, numbers
    and strings as they are.  ``scalar`` converts the elements of an
    object array that holds anything but strings and ``None``."""
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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return ""
        return str(value.astype("datetime64[s]")).replace("T", " ")
    if isinstance(value, np.floating) and np.isnan(value):
        return ""
    return str(value)
