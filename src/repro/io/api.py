"""Top-level scan constructors: LazyFrames rooted at the one ``scan``
leaf.

``repro.scan_csv() / scan_jsonl() / scan_dataset() / scan_columnar()``
are the ingress -- the facade's ``pd.read_csv`` is the pandas spelling
of ``scan_csv`` and builds the same node: each returns a
:class:`~repro.core.lazyframe.LazyFrame` whose root is a ``scan`` node
carrying the format name, the path, and the format's read options.
There is no other file-source op in the graph, so everything that
inspects a read (pushdown, pruning, prefetch, estimates, the I/O
counters, backend choice) has one thing to look at.  The optimizer
folds projections and predicates into those args when the format's
registry spec says the source can execute them, and the pruning pass
drops partitions whose statistics provably fail the folded predicate;
backends look the args up in the session's source table
(:mod:`repro.io.source_table`) at execution time.

``scan_source()`` is the generic spelling custom formats use after
registering a :class:`~repro.io.registry.SourceSpec`.  ``from_pandas()``
wraps an already materialized eager frame.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.core.lazyframe import LazyFrame
from repro.core.session import current_session
from repro.graph.node import Node
from repro.io.registry import DEFAULT_SOURCES
from repro.io.source_table import session_source


def scan_source(
    fmt: str,
    path: str,
    usecols: Optional[Sequence[str]] = None,
    index_col: Optional[str] = None,
    **options,
) -> LazyFrame:
    """A LazyFrame scanning ``path`` through the ``fmt`` source.

    ``usecols`` seeds the scan's projection (the optimizer narrows it
    further); other keyword options (``dtype``, ``parse_dates``,
    ``nrows``, ``partition_bytes``, ...) travel to the source
    constructor.  ``index_col`` is realized as a ``set_index`` node
    after the scan, so sources stay index-free.
    """
    session = current_session()
    args = {"format": str(fmt), "path": path}
    if usecols is not None:
        args["columns"] = list(usecols)
    for key, value in options.items():
        if value is not None:
            args[key] = value
    node = Node("scan", args=args, label=f"scan_{fmt} {path}")
    columns = _static_schema(args, session)
    frame = LazyFrame(session.register(node), session, columns=columns)
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def _static_schema(args: dict, session) -> Optional[list]:
    """Best-effort column tracking at graph-build time (never fatal)."""
    try:
        schema = session_source(args, session.metastore, session).schema()
    except Exception:  # noqa: BLE001 - missing file, unknown format, ...
        return None
    if args.get("columns") is not None:
        wanted = set(args["columns"])
        return [c for c in schema if c in wanted]
    return list(schema)


def scan_csv(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[dict] = None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    partition_bytes: Optional[int] = None,
    read_only_cols: Optional[Sequence[str]] = None,
    mutated_cols: Optional[Sequence[str]] = None,
) -> LazyFrame:
    """Lazy CSV scan (``pd.read_csv`` builds exactly this node)."""
    return scan_source(
        "csv", path, usecols=usecols, index_col=index_col,
        dtype=dict(dtype) if dtype else None,
        parse_dates=list(parse_dates) if parse_dates else None,
        nrows=nrows, partition_bytes=partition_bytes,
        # an empty list is a statement ("nothing is read-only"), not a default
        read_only_cols=None if read_only_cols is None else list(read_only_cols),
        mutated_cols=None if mutated_cols is None else list(mutated_cols),
    )


def scan_jsonl(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[dict] = None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    partition_bytes: Optional[int] = None,
) -> LazyFrame:
    """Lazy newline-delimited-JSON scan."""
    return scan_source(
        "jsonl", path, usecols=usecols, index_col=index_col,
        dtype=dict(dtype) if dtype else None,
        parse_dates=list(parse_dates) if parse_dates else None,
        nrows=nrows, partition_bytes=partition_bytes,
    )


def scan_dataset(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[dict] = None,
    parse_dates: Optional[Sequence[str]] = None,
    index_col: Optional[str] = None,
) -> LazyFrame:
    """Lazy scan of a hive-style ``key=value/`` partitioned dataset."""
    return scan_source(
        "dataset", path, usecols=usecols, index_col=index_col,
        dtype=dict(dtype) if dtype else None,
        parse_dates=list(parse_dates) if parse_dates else None,
    )


def scan_columnar(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    parse_dates: Optional[Sequence[str]] = None,
    index_col: Optional[str] = None,
) -> LazyFrame:
    """Lazy scan of a columnar (``.lfc``) file, local or remote URL.

    Dtypes come from the footer, so there is no ``dtype`` surface --
    the file already knows.  ``parse_dates`` converts string columns
    that were *written* as strings (e.g. from a CSV round-trip) into
    datetimes, matching ``read_csv`` semantics.
    """
    return scan_source(
        "columnar", path, usecols=usecols, index_col=index_col,
        parse_dates=list(parse_dates) if parse_dates else None,
    )


def from_pandas(frame) -> LazyFrame:
    """Wrap an eager frame into the lazy graph.

    The frame enters as a source node; the session's backend converts it
    into its own representation (partitioned on Dask/Modin) on first
    execution.
    """
    session = current_session()
    node = Node("from_pandas", args={"frame": frame}, label="from_pandas")
    columns = list(getattr(frame, "columns", None) or []) or None
    return LazyFrame(session.register(node), session, columns=columns)


def sibling_variant(
    csv_path: str, fmt: Optional[str], dtype=None, nrows=None
) -> Optional[str]:
    """The on-disk variant of ``csv_path`` in another physical format.

    The naming convention shared with the workload generator: ``x.csv``
    has a JSONL sibling ``x.jsonl``, a hive-partitioned sibling
    directory ``x_hive/``, and a columnar sibling ``x.lfc``.  Returns
    ``None`` -- callers stay on the CSV -- when ``fmt`` names no other
    format, the variant does not exist, or the variant cannot honour
    the read's options: only JSONL has a row limit, and a columnar
    footer's dtypes are authoritative.
    """
    stem, ext = os.path.splitext(csv_path)
    if ext != ".csv":
        return None
    if fmt == "jsonl":
        candidate = stem + ".jsonl"
        return candidate if os.path.isfile(candidate) else None
    if nrows is not None:
        return None
    if fmt == "dataset":
        candidate = stem + "_hive"
        return candidate if os.path.isdir(candidate) else None
    if fmt == "columnar" and not dtype:
        candidate = stem + ".lfc"
        return candidate if os.path.isfile(candidate) else None
    return None


__all__ = [
    "DEFAULT_SOURCES",
    "from_pandas",
    "scan_columnar",
    "scan_csv",
    "scan_dataset",
    "scan_jsonl",
    "scan_source",
    "sibling_variant",
]
