"""The :class:`DataSource` protocol: what every scan format plugs into.

A source owns one dataset (a file, a directory, an in-memory table) and
exposes exactly what the lazy runtime negotiates at the scan boundary:

- ``schema()``             -- output column names, in order,
- ``partitions()``         -- the independently readable pieces, each
                              carrying whatever statistics are known
                              (row/byte estimates, exact per-column
                              min/max, hive key values),
- capability flags         -- ``supports_projection`` (the source can
                              materialize only requested columns),
                              ``supports_predicate`` (it can filter rows
                              while reading), ``partitioned`` (it splits
                              into more than one piece),
- ``scan(...)``            -- an iterator of eager per-partition frames,
                              after projection and predicate are applied.

The optimizer folds pushdown *into* a ``scan`` node's args only when the
source's flags say the fold is executable; partition pruning consults
``Partition`` statistics; the scheduler's static order and automatic
backend choice consume ``estimated_bytes``.  Formats register in
:mod:`repro.io.registry`, mirroring the engine and executor registries.

What a source reads about its file (header, footer, layout, metastore
entries) is kept in :attr:`DataSource.facts`, which a session's source
table (:mod:`repro.io.source_table`) shares between the file's sources.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame import DataFrame
from repro.frame.column import Column
from repro.graph.scheduler.stats import count
from repro.io.predicate import Predicate, required_read_columns

#: scan options that shape one read, not the source: bound at read time
#: (:meth:`DataSource.bind`), so scans of one file that differ only in
#: them share a source.
READ_OPTIONS = ("dtype", "parse_dates")


@dataclasses.dataclass
class Partition:
    """One independently readable piece of a source.

    Statistics are optional and *trusted*: ``min_values`` / ``max_values``
    must be exact over the whole partition (pruning proves emptiness with
    them), and ``key_values`` are hive-style constants every row of the
    partition carries.  ``est_rows`` / ``est_bytes`` are estimates and
    only feed scheduling, never correctness.
    """

    index: int
    path: str
    byte_range: Optional[Tuple[int, int]] = None
    key_values: Dict[str, object] = dataclasses.field(default_factory=dict)
    est_rows: Optional[int] = None
    est_bytes: Optional[int] = None
    min_values: Dict[str, float] = dataclasses.field(default_factory=dict)
    max_values: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: exact per-column NA counts, where the source records them
    #: (columnar footers, full-range text stats).  Consulted by the
    #: null-aware ``!=`` proof; an absent column means "unknown".
    null_counts: Dict[str, int] = dataclasses.field(default_factory=dict)


class DataSource:
    """Base class for pluggable scan formats."""

    format_name = "abstract"
    supports_projection = False
    supports_predicate = False
    partitioned = False

    def __init__(self, path: str, metastore=None, **options):
        self.path = path
        self.metastore = metastore
        self.options = options
        #: what was read about the file, by :meth:`fact` key; a session's
        #: source table shares one dict between the file's sources.
        self.facts: Dict[object, object] = {}
        self._parts: Optional[List[Partition]] = None

    # -- protocol ---------------------------------------------------------

    def schema(self) -> List[str]:
        """Output column names in order (projection subsets preserve it)."""
        raise NotImplementedError

    def partitions(self) -> List[Partition]:
        """The source's pieces, with whatever statistics are available
        (listed once, by :meth:`list_partitions`)."""
        if self._parts is None:
            self._parts = self.list_partitions()
        return self._parts

    def list_partitions(self) -> List[Partition]:
        raise NotImplementedError

    def read_partition(
        self,
        partition: Partition,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Predicate] = None,
    ) -> DataFrame:
        """One partition as an eager frame, projected and filtered."""
        raise NotImplementedError

    # -- shared behaviour -------------------------------------------------

    def fact(self, key, read: Callable[[], object]):
        """``facts[key]``, read by ``read()`` the first time."""
        if key not in self.facts:
            self.facts[key] = read()
        return self.facts[key]

    def file_meta(self, path: Optional[str] = None):
        """The metastore's entry for ``path`` (default: the source's
        own file), decoded once; ``None`` without one."""
        path = self.path if path is None else path
        if self.metastore is None:
            return None
        return self.fact(("meta", path), lambda: self.metastore.get(path))

    def bind(self, args: dict) -> "DataSource":
        """This source reading with the scan ``args``' own
        :data:`READ_OPTIONS`: a copy sharing its facts and partitions."""
        options = {k: args[k] for k in READ_OPTIONS if args.get(k) is not None}
        if not options:
            return self
        reader = copy.copy(self)
        reader.options = {**self.options, **options}
        return reader

    def scan(
        self,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Predicate] = None,
        partitions: Optional[Sequence] = None,
    ) -> Iterator[DataFrame]:
        """Iterate eager frames for the selected partitions.

        ``partitions`` names the partitions to read (the optimizer's
        pruning pass narrows this), see :meth:`select_partitions`;
        ``None`` reads everything.
        """
        for part in self.select_partitions(partitions):
            yield self.read_partition(part, columns=columns,
                                      predicate=predicate)

    def select_partitions(
        self, partitions: Optional[Sequence] = None
    ) -> List[Partition]:
        """``partitions`` as :class:`Partition` objects: given so
        (planned scans carry them, byte ranges included), looked up by
        index, or -- ``None`` -- all of them."""
        if partitions is None:
            return self.partitions()
        if all(isinstance(p, Partition) for p in partitions):
            return list(partitions)
        keep = set(partitions)
        return [p for p in self.partitions() if p.index in keep]

    def empty_frame(
        self,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Predicate] = None,
    ) -> DataFrame:
        """Zero-row frame with the dtypes a real read produces.

        Used when every partition was pruned away: the unpruned run
        would have read typed columns and filtered them all out, so the
        pruned run must not degrade them to object.  Reading one
        partition (with the predicate that pruned it -- provably
        matching nothing) reproduces those dtypes exactly; only a
        source with no readable partition falls back to untyped empty
        columns."""
        try:
            parts = self.partitions()
        except OSError:
            parts = []
        if parts:
            frame = self.read_partition(parts[0], columns=columns,
                                        predicate=predicate)
            return frame.take(np.arange(0))
        names = list(columns) if columns is not None else self.schema()
        return DataFrame.from_columns({
            name: Column(np.array([], dtype=object)) for name in names
        })

    def estimated_bytes(
        self,
        columns: Optional[Sequence[str]] = None,
        partitions: Optional[Sequence] = None,
    ) -> Optional[int]:
        """Predicted in-memory bytes of scanning (post-projection,
        post-pruning); ``None`` when nothing is known.  Default: sum of
        per-partition estimates, scaled by the projected column fraction
        (the width x rows heuristic -- per-column widths live in the
        metastore and refine this in the concrete sources)."""
        parts = self.select_partitions(partitions)
        known = [p.est_bytes for p in parts if p.est_bytes is not None]
        if not known:
            return None
        total = sum(known)
        if columns is not None:
            schema = self.schema()
            if schema:
                total = int(total * max(1, len(columns)) / len(schema))
        return total

    # -- helpers for subclasses -------------------------------------------

    def _finish(
        self,
        frame: DataFrame,
        columns: Optional[Sequence[str]],
        predicate: Optional[Predicate],
    ) -> DataFrame:
        """Apply the scan contract to a freshly read frame: filter rows
        first (the mask may need columns the projection drops), then
        project to the requested columns.  Output preserves the source's
        physical column order (the ``read_csv``/pandas ``usecols``
        convention), not the request order."""
        count(cells_decoded=len(frame) * len(frame.columns))
        if predicate is not None:
            frame = predicate.filter(frame)
        if columns is not None:
            keep = set(columns)
            wanted = [c for c in frame.columns if c in keep]
            if wanted != list(frame.columns):
                frame = frame[wanted]
        return frame

    def _read_columns(
        self,
        columns: Optional[Sequence[str]],
        predicate: Optional[Predicate],
    ) -> Optional[List[str]]:
        """Physical columns the read must materialize (projection plus
        predicate columns)."""
        return required_read_columns(columns, predicate, self.schema())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.path!r}>"
