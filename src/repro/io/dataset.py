"""Directory-partitioned datasets (hive-style ``key=value/`` layout).

A dataset root contains one subdirectory level per partition key::

    sales/
      region=east/part-0.csv
      region=west/part-0.csv

Each leaf file is one partition; the key columns are not stored in the
leaves -- they are constants recovered from the path and appended to
every row on read.  That makes predicates over partition keys *exactly*
prunable (no statistics needed), while predicates over payload columns
prune through the metastore's per-file min/max (trusted only when the
file's metadata was computed unsampled -- sampled extrema are not
proof).  Leaves whose metadata carries per-byte-range partition stats
split further into one partition per range, so pruning can skip a
*slice* of a leaf file and the reader fetches only that byte range.

Leaves may be CSV or JSONL; :func:`write_dataset` produces the layout
from an eager frame (the datagen "partitioned variant" path).
"""

from __future__ import annotations

import os
from functools import partial
from typing import List

import numpy as np

from repro.frame import DataFrame
from repro.frame.column import Column
from repro.frame.io_csv import (
    CSV_TOKENS, column_builders as csv_builders, csv_header, csv_lines, csv_text,
    frame_tokens, read_header,
)
from repro.io.csv_source import attach_file_stats
from repro.io.jsonl import (
    column_builders as jsonl_builders, jsonl_lines, jsonl_text, read_jsonl_header,
)
from repro.io.source import DataSource, Partition

_LEAF_EXTENSIONS = (".csv", ".jsonl")


def parse_key_value(component: str):
    """``"year=2024"`` -> ``("year", 2024)`` with numeric coercion."""
    key, _, raw = component.partition("=")
    return key, coerce_key_value(raw)


def coerce_key_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def discover_leaves(root: str) -> List[dict]:
    """All leaf files under ``root`` with their decoded key values,
    sorted by relative path for deterministic partition indices."""
    leaves = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        rel = os.path.relpath(dirpath, root)
        components = [] if rel == "." else rel.split(os.sep)
        if not all("=" in c for c in components):
            continue
        keys = dict(parse_key_value(c) for c in components)
        for name in sorted(filenames):
            if name.endswith(_LEAF_EXTENSIONS):
                leaves.append({
                    "path": os.path.join(dirpath, name),
                    "key_values": keys,
                })
    return leaves


def write_dataset(
    frame: DataFrame,
    root: str,
    partition_on: str,
    fmt: str = "csv",
) -> List[str]:
    """Write ``frame`` as a hive-partitioned dataset; returns leaf paths.

    Rows are grouped by ``partition_on``; the key column lives only in
    the directory names (read back as a constant column).  The payload
    is encoded into row strings once; each leaf gets its rows' slice.
    """
    values = frame.column(partition_on).to_array()
    names = [c for c in frame.columns if c != partition_on]
    if fmt == "jsonl":
        header, text = "", jsonl_text
        lines = jsonl_lines(frame, names)
    else:
        header, text = csv_header(names), csv_text
        lines = csv_lines(frame_tokens(frame, names, CSV_TOKENS))
    rows = np.array(lines, dtype=object)
    paths = []
    for value in _ordered_unique(values):
        picked = rows[np.nonzero(values == value)[0]] if lines else rows
        leaf_dir = os.path.join(root, f"{partition_on}={value}")
        os.makedirs(leaf_dir, exist_ok=True)
        leaf = os.path.join(leaf_dir, f"part-0.{fmt}")
        with open(leaf, "w", newline=None if fmt == "jsonl" else "") as f:
            f.write(header + text(picked.tolist()))
        paths.append(leaf)
    return paths


def _ordered_unique(values: np.ndarray) -> List[object]:
    seen = set()
    out = []
    for v in values.tolist():
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


class DatasetSource(DataSource):
    """One partition per leaf file; hive keys become constant columns."""

    format_name = "dataset"
    supports_projection = True
    supports_predicate = True
    partitioned = True

    # -- layout -----------------------------------------------------------

    def leaves(self) -> List[dict]:
        return self.fact("leaves", self._discover)

    def _discover(self) -> List[dict]:
        leaves = discover_leaves(self.path)
        if not leaves:
            raise OSError(f"no partition files under {self.path!r}")
        return leaves

    def key_columns(self) -> List[str]:
        return list(self.leaves()[0]["key_values"])

    def schema(self) -> List[str]:
        first = self.leaves()[0]["path"]
        if first.endswith(".jsonl"):
            leaf_cols = self.fact("schema", lambda: read_jsonl_header(first))
        else:
            leaf_cols = self._leaf_header(first)
        return leaf_cols + self.key_columns()

    def _leaf_header(self, path: str) -> List[str]:
        """A csv leaf's header, read once (a leaf split into byte ranges
        is read many times)."""
        return self.fact(("header", path), lambda: read_header(path))

    def list_partitions(self) -> List[Partition]:
        parts: List[Partition] = []
        for leaf in self.leaves():
            meta = self.file_meta(leaf["path"])
            ranges = getattr(meta, "partitions", None) if meta else None
            if ranges:
                # Sub-file chunk stats (metadata computed with
                # ``partition_ranges``): one partition per byte range,
                # so payload-column pruning can discard a *slice* of a
                # leaf the per-file extrema could never rule out.
                pieces = [
                    Partition(len(parts) + i, leaf["path"],
                              byte_range=(ps.start, ps.end),
                              key_values=dict(leaf["key_values"]))
                    for i, ps in enumerate(ranges)
                ]
                attach_file_stats(pieces, meta)
                parts += pieces
                continue
            part = Partition(
                len(parts), leaf["path"],
                key_values=dict(leaf["key_values"]),
                est_bytes=os.path.getsize(leaf["path"]),
            )
            self._attach_leaf_stats(part, meta)
            parts.append(part)
        return parts

    def _attach_leaf_stats(self, part: Partition, meta) -> None:
        if meta is None:
            return
        part.est_rows = meta.n_rows
        part.est_bytes = int(meta.row_size * meta.n_rows) or part.est_bytes
        if meta.sampled:
            return  # sampled extrema are estimates, not pruning proof
        for name, stats in meta.columns.items():
            if stats.min_value is not None:
                part.min_values[name] = stats.min_value
            if stats.max_value is not None:
                part.max_values[name] = stats.max_value

    # -- reading ----------------------------------------------------------

    def read_partition(self, partition, columns=None, predicate=None):
        keys = partition.key_values
        read_cols = self._read_columns(columns, predicate)
        leaf_cols = None
        if read_cols is not None:
            leaf_cols = [c for c in read_cols if c not in keys]
        if partition.path.endswith(".jsonl"):
            n_rows, builders = jsonl_builders(
                partition.path,
                columns=leaf_cols,
                byte_range=partition.byte_range,
                parse_dates=self.options.get("parse_dates"),
                dtype=self.options.get("dtype"),
            )
        else:
            n_rows, builders = csv_builders(
                partition.path,
                usecols=leaf_cols,
                byte_range=partition.byte_range,
                dtype=self.options.get("dtype"),
                parse_dates=self.options.get("parse_dates"),
                header=self._leaf_header(partition.path),
            )
        for name, value in keys.items():
            if read_cols is None or name in read_cols:
                builders[name] = partial(_constant_column, value, n_rows)
        return self.assemble(n_rows, builders, columns, predicate)


def _constant_column(value, n: int) -> Column:
    if isinstance(value, bool) or isinstance(value, str):
        return Column(np.asarray([value] * n, dtype=object))
    if isinstance(value, int):
        return Column(np.full(n, value, dtype=np.int64))
    if isinstance(value, float):
        return Column(np.full(n, value, dtype=np.float64))
    return Column(np.asarray([value] * n, dtype=object))
