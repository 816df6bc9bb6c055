"""The scan formats: format name -> :class:`DataSource` class.

Every format folds projections and predicates into its reads, so the
optimizer needs nothing from this table but the class.  Only the
session's source table (:mod:`repro.io.source_table`) calls
:func:`resolve_source`: everything else takes the session's one source
per identity, so a file is read once per session.
"""

from __future__ import annotations

from types import MappingProxyType

from repro import choose
from repro.io.columnar import ColumnarSource
from repro.io.csv_source import CsvSource
from repro.io.dataset import DatasetSource
from repro.io.jsonl import JsonlSource
from repro.io.source import DataSource

#: scan-node arg keys owned by the runtime, not the source constructor.
STRUCTURAL_ARGS = frozenset({
    "format", "path", "columns", "predicate", "partitions",
    "partitions_total", "mutated_cols",
})

#: format name (a ``scan`` node's ``format`` arg) -> source class: a
#: byte-range partitioned CSV or newline-JSON file, a hive-style
#: ``key=value/`` directory, or a row-group ``.lfc`` file with
#: per-chunk statistics (local or object-store URLs).
FORMATS = MappingProxyType({
    source.format_name: source
    for source in (CsvSource, JsonlSource, DatasetSource, ColumnarSource)
})


def source_class(fmt: str) -> type:
    """The :class:`DataSource` class of format ``fmt``."""
    return choose(FORMATS, str(fmt).lower(), "source format")


def resolve_source(args: dict, metastore=None) -> DataSource:
    """Instantiate the source a ``scan`` node's args describe.

    Non-structural args (``dtype``, ``parse_dates``, ``partition_bytes``,
    ``nrows``, ...) pass through to the source constructor as options.
    """
    options = {
        k: v for k, v in args.items()
        if k not in STRUCTURAL_ARGS and v is not None
    }
    return source_class(args["format"])(
        args["path"], metastore=metastore, **options)
