"""Metadata computation for source data files.

Types require a full-column look to be *correct*; statistics may come from
a sample (the paper computes stats from a sample, types from the full file
"at some risk" if sampled).  We scan a configurable number of rows
(``sample_rows=None`` means the whole file) and record per column:

- inferred logical type,
- min/max (numeric and datetime columns),
- distinct-count estimate and selectivity (distinct/rows),
- average encoded width (bytes),

plus file-level row count, average row size, and the file's size and
modified time.

Partitioned reads get their own layer: passing ``partition_ranges``
(the byte ranges a :class:`~repro.io.csv_source.CsvSource` or
:class:`~repro.io.jsonl.JsonlSource` will scan) records one
:class:`PartitionStats` per range.  Unlike the file-level sample, each
partition is read *in full*: its min/max feed partition pruning, which
must be a proof, not an estimate.  ``fmt="jsonl"`` switches the reader
for newline-delimited JSON files.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame.io_csv import read_csv

#: Columns with at most this many distinct values *and* a selectivity
#: below 10% are proposed as ``category`` dtype.
CATEGORY_MAX_DISTINCT = 64
CATEGORY_MAX_SELECTIVITY = 0.1


@dataclasses.dataclass
class ColumnStats:
    """Statistics for one column of a source file."""

    name: str
    dtype: str
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    distinct: int = 0
    selectivity: float = 1.0
    avg_width: float = 8.0

    def is_category_candidate(self) -> bool:
        """Low-cardinality string column suitable for dictionary encoding."""
        return (
            self.dtype == "object"
            and self.distinct <= CATEGORY_MAX_DISTINCT
            and self.selectivity <= CATEGORY_MAX_SELECTIVITY
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStats":
        return cls(**data)


@dataclasses.dataclass
class PartitionStats:
    """Exact statistics of one byte-range partition of a file.

    ``min_values`` / ``max_values`` cover every row of the range (the
    partition is read in full when these are computed), so the pruning
    pass may treat them as proof of emptiness.
    """

    index: int
    start: int
    end: int
    n_rows: int
    n_bytes: int
    min_values: Dict[str, float] = dataclasses.field(default_factory=dict)
    max_values: Dict[str, float] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionStats":
        return cls(**data)


@dataclasses.dataclass
class FileMetadata:
    """Everything the metastore knows about one file."""

    path: str
    #: ``(size, mtime_ns)`` of the file the entry was computed from
    stamp: Tuple[int, int]
    n_rows: int
    row_size: float
    columns: Dict[str, ColumnStats]
    sampled: bool
    #: per-partition exact stats (empty unless computed with
    #: ``partition_ranges``); matched back to live byte ranges by the
    #: sources, so stale chunking is ignored rather than mis-applied.
    partitions: List[PartitionStats] = dataclasses.field(default_factory=list)

    def dtype_hints(self, read_only_columns: Optional[List[str]] = None) -> Dict[str, str]:
        """dtype mapping for ``read_csv`` (section 3.6).

        ``category`` is proposed only for columns listed as read-only --
        assigning a new value to a category column raises at runtime, so
        the rewrite must prove the column is never written (the paper's
        kill-information check).
        """
        read_only = set(read_only_columns or [])
        hints: Dict[str, str] = {}
        for name, stats in self.columns.items():
            if stats.is_category_candidate() and name in read_only:
                hints[name] = "category"
            elif stats.dtype in ("int64", "float64"):
                hints[name] = stats.dtype
        return hints

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "stamp": list(self.stamp),
            "n_rows": self.n_rows,
            "row_size": self.row_size,
            "sampled": self.sampled,
            "columns": {k: v.to_dict() for k, v in self.columns.items()},
            "partitions": [p.to_dict() for p in self.partitions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileMetadata":
        return cls(
            path=data["path"],
            stamp=tuple(data["stamp"]),
            n_rows=data["n_rows"],
            row_size=data["row_size"],
            sampled=data["sampled"],
            columns={
                k: ColumnStats.from_dict(v) for k, v in data["columns"].items()
            },
            partitions=[
                PartitionStats.from_dict(p)
                for p in data.get("partitions", [])
            ],
        )


def compute_metadata(
    path: str,
    sample_rows: Optional[int] = 10_000,
    fmt: str = "csv",
    partition_ranges: Optional[Sequence[Tuple[int, int]]] = None,
) -> FileMetadata:
    """Scan ``path`` and compute :class:`FileMetadata`.

    This is the "script run on the file" of section 3.6; the benchmark
    runner executes it as a background/setup task.  ``partition_ranges``
    additionally records exact per-range :class:`PartitionStats` (each
    range read in full -- pruning needs proof, see the module docstring).
    """
    if fmt == "jsonl":
        # Deferred import: repro.io imports this module for PartitionStats.
        from repro.io.jsonl import read_jsonl as read
    else:
        read = read_csv
    stamp = file_stamp(path)
    frame = read(path, nrows=sample_rows)
    sampled = sample_rows is not None and len(frame) >= sample_rows

    n_rows = len(frame)
    if sampled:
        n_rows = _estimate_total_rows(path, len(frame),
                                      has_header=fmt != "jsonl")

    columns = _column_stats(frame, n_rows, sampled)
    partitions: List[PartitionStats] = []
    if partition_ranges:
        partitions = _partition_stats(
            partition_ranges, lambda rng: read(path, byte_range=rng),
        )

    row_size = sum(s.avg_width for s in columns.values())
    return FileMetadata(
        path=os.path.abspath(path),
        stamp=stamp,
        n_rows=n_rows,
        row_size=row_size,
        columns=columns,
        sampled=sampled,
        partitions=partitions,
    )


def file_stamp(path: str) -> Tuple[int, int]:
    """``(size, mtime_ns)`` of ``path``: the stat signature
    (:func:`repro.cache.fingerprint.source_signature`) the metastore
    checks an entry against."""
    from repro.cache.fingerprint import source_signature

    (_, size, mtime_ns), = source_signature(path)
    return size, mtime_ns


def _column_stats(frame, n_rows: int, sampled: bool) -> Dict[str, ColumnStats]:
    columns: Dict[str, ColumnStats] = {}
    for name in frame.columns:
        col = frame.column(name)
        stats = ColumnStats(name=name, dtype=_dtype_name(col))
        sample_n = max(1, len(col))
        stats.distinct = col.nunique()
        if sampled and stats.distinct > sample_n * 0.5:
            # High-cardinality in the sample: extrapolate linearly.
            stats.distinct = int(stats.distinct * n_rows / sample_n)
        stats.selectivity = min(1.0, stats.distinct / max(1, n_rows))
        stats.avg_width = col.nbytes / sample_n
        low, high = _column_minmax(col)
        stats.min_value, stats.max_value = low, high
        columns[name] = stats
    return columns


def _column_minmax(col):
    if not col.is_category and col.values.dtype.kind in "if":
        vals = col.values
        if vals.dtype.kind == "f":
            vals = vals[~np.isnan(vals)]
        if len(vals):
            return float(vals.min()), float(vals.max())
    return None, None


def _partition_stats(ranges, read_range) -> List[PartitionStats]:
    """Exact stats per byte range: each range is read in full, so the
    recorded min/max are pruning-grade proof, not estimates."""
    out: List[PartitionStats] = []
    for index, rng in enumerate(ranges):
        start, end = int(rng[0]), int(rng[1])
        piece = read_range((start, end))
        mins: Dict[str, float] = {}
        maxs: Dict[str, float] = {}
        for name in piece.columns:
            low, high = _column_minmax(piece.column(name))
            if low is not None:
                mins[name] = low
            if high is not None:
                maxs[name] = high
        out.append(PartitionStats(
            index=index,
            start=start,
            end=end,
            n_rows=len(piece),
            n_bytes=int(piece.nbytes),
            min_values=mins,
            max_values=maxs,
        ))
    return out


def _dtype_name(col) -> str:
    if col.is_category:
        return "category"
    kind = col.values.dtype.kind
    return {
        "i": "int64",
        "f": "float64",
        "b": "bool",
        "M": "datetime64[ns]",
        "O": "object",
    }.get(kind, str(col.values.dtype))


def _estimate_total_rows(
    path: str, sampled_rows: int, has_header: bool = True
) -> int:
    """Estimate the file's row count from its byte size and a sample."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        if has_header:
            f.readline()
        data_start = f.tell()
        read = 0
        lines = 0
        while lines < sampled_rows:
            line = f.readline()
            if not line:
                break
            read += len(line)
            lines += 1
    if lines == 0 or read == 0:
        return sampled_rows
    front_avg = read / lines
    # Rows often grow with ordinal ids; blend in a tail sample so the
    # estimate is not front-biased.
    tail_avg = _tail_line_width(path, size)
    avg_line = (front_avg + tail_avg) / 2 if tail_avg else front_avg
    return int((size - data_start) / avg_line)


def _tail_line_width(path: str, size: int) -> float:
    chunk = min(size, 1 << 14)
    with open(path, "rb") as f:
        f.seek(size - chunk)
        data = f.read(chunk)
    newlines = data.count(b"\n")
    if newlines < 2:
        return 0.0
    first = data.index(b"\n")
    return (len(data) - first - 1) / max(1, newlines - 1)
