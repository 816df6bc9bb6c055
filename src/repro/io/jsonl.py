"""Newline-delimited JSON: reader, writer, and the :class:`JsonlSource`.

One JSON object per line.  Values keep their JSON types (ints stay
int64, floats float64, ``null`` becomes NA), which is exactly the
metadata CSV loses -- the format exists here so the scan layer has a
second real format with different physical characteristics.

Byte-range partitioning is the CSV reader's
(:func:`repro.frame.io_csv.read_line_blocks`: a line belongs to the
range holding its first byte) minus the header line CSV carries; each
block of lines is decoded once and parsed by one ``json.loads``.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame import DataFrame
from repro.frame.column import Column
from repro.frame.io_csv import (
    TokenRules, frame_tokens, read_line_blocks, row_batches,
)
from repro.io.csv_source import ByteRangeSource


def write_jsonl(frame: DataFrame, path: str) -> None:
    """Write a frame as one JSON object per line (NA as ``null``), byte
    for byte what ``json.JSONEncoder().encode`` makes of each row."""
    names = frame.columns
    with open(path, "w") as f:
        for rows in row_batches(len(frame)):
            f.write(jsonl_text(jsonl_lines(frame, names, rows)))


def jsonl_lines(
    frame: DataFrame, names: Sequence[str], rows: slice = slice(None)
) -> List[str]:
    """The ``rows`` of the named columns as JSON objects, one string
    each: every key is encoded once and each row is one ``"".join`` of
    the keys interleaved with the row's tokens."""
    if not names:
        return []
    parts: list = []
    for i, (name, tokens) in enumerate(
            zip(names, frame_tokens(frame, names, JSON_TOKENS, rows))):
        key = _ENCODE({name: 0})[1:-2]  # '"name": '
        parts += [repeat(("{" if i == 0 else ", ") + key), tokens]
    parts.append(repeat("}"))
    return list(map("".join, zip(*parts)))


def jsonl_text(lines: List[str]) -> str:
    """Objects as the file holds them, one a line."""
    return "\n".join(lines) + "\n" if lines else ""


_ENCODE = json.JSONEncoder().encode


def _json_strings(cells: List[str]) -> List[str]:
    return list(map(encode_basestring_ascii, cells))


def _json_scalar(value) -> str:
    """A mixed object column's cell: numpy scalars as their Python
    value, NA as ``null``, datetimes in ISO, anything else as text."""
    return _ENCODE(_jsonable(value))


def _jsonable(value):
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


JSON_TOKENS = TokenRules(na="null", false="false", true="true",
                         inf="Infinity", strings=_json_strings,
                         scalar=_json_scalar)


def read_jsonl_header(path: str) -> List[str]:
    """Column names: union of keys over the first few records, in
    first-seen order (records may omit keys)."""
    names: List[str] = []
    seen = set()
    with open(path) as f:
        for i, line in enumerate(f):
            if i >= 100:
                break
            line = line.strip()
            if not line:
                continue
            for key in json.loads(line):
                if key not in seen:
                    seen.add(key)
                    names.append(key)
    return names


def read_jsonl(path: str, **options) -> DataFrame:
    """Read (a byte range of) a JSONL file into a :class:`DataFrame`:
    every column of :func:`column_builders` (same options), built."""
    _, builders = column_builders(path, **options)
    return DataFrame.from_columns({n: build() for n, build in builders.items()})


def column_builders(
    path: str, columns: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None, byte_range: Optional[Tuple[int, int]] = None,
    parse_dates: Optional[Sequence[str]] = None, dtype: Optional[dict] = None,
) -> Tuple[int, Dict[str, Callable[[], Column]]]:
    """The number of records, and per wanted column the function that
    types its values."""
    wanted = list(columns) if columns is not None else None
    records: List[dict] = []
    with closing(read_line_blocks(path, byte_range)) as blocks:
        for block in blocks:
            text = str(block, "utf-8")
            lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
            if nrows is not None:
                del lines[nrows - len(records):]
            records.extend(_parse_lines(lines))
            if nrows is not None and len(records) >= nrows:
                break

    if wanted is None:
        wanted = []
        seen = set()
        for record in records:
            for key in record:
                if key not in seen:
                    seen.add(key)
                    wanted.append(key)
        if not wanted and os.path.getsize(path):
            wanted = read_jsonl_header(path)

    parse_set = set(parse_dates or [])
    dtype = dtype or {}
    return len(records), {
        name: partial(_build_column, records, name, name in parse_set,
                      dtype.get(name))
        for name in wanted
    }


def _build_column(records: List[dict], name: str, parse_date: bool,
                  dtype) -> Column:
    values = [record.get(name) for record in records]
    if parse_date:
        cleaned = ["NaT" if v in (None, "") else str(v) for v in values]
        column = Column(np.asarray(cleaned, dtype="datetime64[ns]"))
    else:
        column = _column_from_values(values)
    return column if dtype is None else column.astype(dtype)


def _parse_lines(lines: List[str]) -> list:
    """One ``json.loads`` over the lines joined into an array; on a
    malformed line (or one holding several values) parse line by line so
    the error names it."""
    try:
        records = json.loads("[" + ",".join(lines) + "]")
        if len(records) == len(lines):
            return records
    except json.JSONDecodeError:
        pass
    return [json.loads(line) for line in lines]


def _column_from_values(values: List[object]) -> Column:
    """JSON values -> typed column: int64 when all ints, float64 when
    numeric with NA, object otherwise (None preserved as NA)."""
    has_na = any(v is None for v in values)
    non_null = [v for v in values if v is not None]
    if non_null and all(
        isinstance(v, bool) for v in non_null
    ) and not has_na:
        return Column(np.asarray(values, dtype=bool))
    if non_null and all(
        isinstance(v, int) and not isinstance(v, bool) for v in non_null
    ):
        if not has_na:
            return Column(np.asarray(values, dtype=np.int64))
        return Column(np.asarray(
            [np.nan if v is None else float(v) for v in values],
            dtype=np.float64,
        ))
    if non_null and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in non_null
    ):
        return Column(np.asarray(
            [np.nan if v is None else float(v) for v in values],
            dtype=np.float64,
        ))
    return Column(np.asarray(values, dtype=object))


def jsonl_partitions(path: str, n_partitions: int) -> List[Tuple[int, int]]:
    """Split a JSONL file into ~equal byte ranges (no header to skip);
    ranges align to newlines downstream exactly like the CSV reader."""
    size = os.path.getsize(path)
    n_partitions = max(1, n_partitions)
    span = max(1, size // n_partitions)
    ranges = []
    start = 0
    for i in range(n_partitions):
        end = size if i == n_partitions - 1 else min(size, start + span)
        if start >= size:
            break
        ranges.append((start, end))
        start = end
    return ranges


class JsonlSource(ByteRangeSource):
    """Byte-range partitioned newline-delimited JSON."""

    format_name = "jsonl"
    supports_projection = True
    supports_predicate = True

    def schema(self) -> List[str]:
        return self.fact("schema", lambda: read_jsonl_header(self.path))

    def byte_ranges(self, n: int) -> List[Tuple[int, int]]:
        return jsonl_partitions(self.path, n)

    def read_partition(self, partition, columns=None, predicate=None):
        n_rows, builders = column_builders(
            partition.path,
            columns=self._read_columns(columns, predicate),
            nrows=self.options.get("nrows"),
            byte_range=partition.byte_range,
            parse_dates=self.options.get("parse_dates"),
            dtype=self.options.get("dtype"),
        )
        return self.assemble(n_rows, builders, columns, predicate)

    def estimated_bytes(self, columns=None, partitions=None):
        estimate = super().estimated_bytes(columns=columns,
                                           partitions=partitions)
        if estimate is not None:
            # JSONL repeats every key on every row; the in-memory frame
            # is much denser than the file. Halve the raw-byte estimate.
            return estimate // 2
        return None
