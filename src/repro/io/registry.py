"""Source registry: format name -> :class:`DataSource`, mirroring
:class:`~repro.backends.engine.EngineRegistry` and
:class:`~repro.graph.scheduler.ExecutorRegistry`.

A :class:`SourceSpec` carries the capability facts the *optimizer*
branches on without touching the filesystem (can projections fold in?
predicates? is the source partitioned at all?); ``create`` instantiates
the source for passes that need real partitions.  Only the session's
source table (:mod:`repro.io.source_table`) calls
:func:`resolve_source`: everything else takes the session's one source
per identity, so a file is read once per session.  Third-party
formats register into :data:`DEFAULT_SOURCES` (or a private registry
handed to the resolving call) exactly like custom engines and executor
strategies do.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.io.columnar import ColumnarSource
from repro.io.csv_source import CsvSource
from repro.io.dataset import DatasetSource
from repro.io.jsonl import JsonlSource
from repro.io.source import DataSource
from repro.registry import SpecRegistry

#: scan-node arg keys owned by the runtime, not the source constructor.
STRUCTURAL_ARGS = frozenset({
    "format", "path", "columns", "predicate", "partitions",
    "partitions_total", "est_bytes", "read_only_cols", "mutated_cols",
    "stream",
})


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """Static description of one scan format."""

    format: str
    factory: Callable[..., DataSource]
    supports_projection: bool = False
    supports_predicate: bool = False
    partitioned: bool = False
    description: str = ""

    @classmethod
    def from_source(cls, source_cls, description: str = "") -> "SourceSpec":
        """Derive a spec from a :class:`DataSource` subclass's own
        class-level capability flags."""
        return cls(
            format=source_cls.format_name,
            factory=source_cls,
            supports_projection=source_cls.supports_projection,
            supports_predicate=source_cls.supports_predicate,
            partitioned=source_cls.partitioned,
            description=description,
        )

    def create(self, path: str, metastore=None, **options) -> DataSource:
        return self.factory(path, metastore=metastore, **options)


class SourceRegistry(SpecRegistry[SourceSpec]):
    """Format name -> :class:`SourceSpec` lookup."""

    key_attr = "format"
    noun = "source format"
    formats = SpecRegistry.names


#: The stock registry with the four built-in formats.
DEFAULT_SOURCES = SourceRegistry([
    SourceSpec.from_source(
        CsvSource, description="byte-range partitioned CSV file"
    ),
    SourceSpec.from_source(
        JsonlSource, description="byte-range partitioned newline JSON"
    ),
    SourceSpec.from_source(
        DatasetSource, description="hive-style key=value/ directory dataset"
    ),
    SourceSpec.from_source(
        ColumnarSource,
        description="row-group columnar file with per-chunk statistics "
                    "(local or object-store URLs)",
    ),
])


def resolve_source(
    args: dict, metastore=None, registry: Optional[SourceRegistry] = None
) -> DataSource:
    """Instantiate the source a ``scan`` node's args describe.

    Non-structural args (``dtype``, ``parse_dates``, ``partition_bytes``,
    ``nrows``, ...) pass through to the source constructor as options.
    """
    spec = (registry or DEFAULT_SOURCES).spec(args["format"])
    options = {
        k: v for k, v in args.items()
        if k not in STRUCTURAL_ARGS and v is not None
    }
    return spec.create(args["path"], metastore=metastore, **options)


def source_capabilities(fmt: str,
                        registry: Optional[SourceRegistry] = None):
    """The format's spec, or ``None`` for unknown formats (optimizer
    passes treat unknown as "no capabilities": nothing folds in)."""
    return (registry or DEFAULT_SOURCES).get(fmt)
