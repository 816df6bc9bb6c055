"""The CSV :class:`DataSource`: the seed reader behind a scan boundary.

Wraps :mod:`repro.frame.io_csv` (including its ``scan_partitions``
byte-range chunking, unchanged) in the :class:`~repro.io.source.DataSource`
protocol, so the optimizer can fold projections (``usecols``) and
predicates into the read, and the pruning pass can consult the
metastore's per-partition min/max statistics
(:class:`repro.metastore.stats.PartitionStats`).
"""

from __future__ import annotations

import os
from typing import List, Tuple

from repro.frame.io_csv import column_builders, read_header, scan_partitions
from repro.io.source import DataSource, Partition

#: Target bytes of CSV per partition (the Dask backend's scale).
DEFAULT_PARTITION_BYTES = 1 << 20


def attach_file_stats(parts: List[Partition], meta) -> None:
    """Fill partition statistics from the file's metastore entry
    ``meta``, when there is one.

    Per-partition entries (``FileMetadata.partitions``) must have been
    computed over the *same* byte ranges the source derives -- ranges are
    matched exactly and silently ignored otherwise, so stale chunking
    can never mis-prune.  Exact per-partition min/max enables pruning;
    row/byte estimates feed the scheduler's static order.
    """
    if meta is None:
        return
    by_range = {
        (p.start, p.end): p for p in meta.partitions
    }
    for part in parts:
        stat = by_range.get(part.byte_range)
        if stat is None:
            continue
        part.est_rows = stat.n_rows
        part.est_bytes = stat.n_bytes
        part.min_values = dict(stat.min_values)
        part.max_values = dict(stat.max_values)


class ByteRangeSource(DataSource):
    """A text file read in newline-aligned byte ranges of about
    ``partition_bytes`` each (a row-limited read is inherently
    sequential: one range), carrying the metastore's statistics for
    the ranges they were computed over."""

    partitioned = True

    def __init__(self, path: str, metastore=None, **options):
        super().__init__(path, metastore=metastore, **options)
        self.partition_bytes = int(
            options.get("partition_bytes") or DEFAULT_PARTITION_BYTES
        )

    def byte_ranges(self, n: int) -> List[Tuple[int, int]]:
        """About ``n`` ranges that tile the file's rows."""
        raise NotImplementedError

    def list_partitions(self) -> List[Partition]:
        n = 1 if self.options.get("nrows") is not None else max(
            1, os.path.getsize(self.path) // self.partition_bytes)
        parts = [
            Partition(i, self.path, byte_range=rng, est_bytes=rng[1] - rng[0])
            for i, rng in enumerate(self.byte_ranges(int(n)))
        ]
        attach_file_stats(parts, self.file_meta())
        return parts


class CsvSource(ByteRangeSource):
    """Byte-range partitioned CSV (migrated from the ``io_csv`` path)."""

    format_name = "csv"
    supports_projection = True
    supports_predicate = True

    def schema(self) -> List[str]:
        return self.fact("schema", lambda: read_header(self.path))

    def byte_ranges(self, n: int) -> List[Tuple[int, int]]:
        # a header-only file is one empty piece
        return scan_partitions(self.path, n) or [(0, 0)]

    def read_partition(self, partition, columns=None, predicate=None):
        n_rows, builders = column_builders(
            self.path,
            usecols=self._read_columns(columns, predicate),
            dtype=self.options.get("dtype"),
            parse_dates=self.options.get("parse_dates"),
            nrows=self.options.get("nrows"),
            byte_range=partition.byte_range,
            header=self.schema(),
        )
        return self.assemble(n_rows, builders, columns, predicate)

    def estimated_bytes(self, columns=None, partitions=None):
        parts = self.select_partitions(partitions)
        meta = self.file_meta()
        if meta is not None and meta.columns:
            # width x rows from column statistics, per selected partition.
            names = list(columns) if columns is not None else list(meta.columns)
            width = sum(
                meta.columns[n].avg_width for n in names if n in meta.columns
            )
            rows = sum(
                p.est_rows if p.est_rows is not None
                else _rows_from_bytes(p, meta)
                for p in parts
            )
            return int(width * rows)
        return super().estimated_bytes(columns=columns, partitions=partitions)


def _rows_from_bytes(part: Partition, meta) -> float:
    if part.est_bytes is None or not meta.row_size:
        return 0.0
    return part.est_bytes / max(1.0, meta.row_size)
