"""Backend adapter for the Dask simulator.

Translates LaFP task-graph nodes into lazy
:class:`~repro.backends.dask_sim.frame.DaskFrame` expressions -- "the API
call is transformed to the compatible API call for the selected lazy
backend" (section 2.6).  Materialization happens once per root;
``persist()`` pins shared subexpressions (section 3.5).

Incompatibility handling reproduces the paper's example: ``read_csv`` has
no ``index_col`` on Dask, so the adapter issues a ``set_index`` after the
read instead.  Ops the simulator refuses (``sort_values``, ``describe``,
...) fall back to pandas via the base class.
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.dask_sim.compute import Evaluator
from repro.backends.dask_sim.frame import (
    DaskCollection,
    DaskFrame,
    DaskScalar,
    DaskSeries,
    from_pandas,
)
from repro.backends.dask_sim.store import PartitionStore
from repro.frame import DataFrame, Series

#: Target bytes of CSV per partition (scaled-down analogue of Dask's 64 MB).
DEFAULT_PARTITION_BYTES = 1 << 20


def _auto_partition_bytes(default: int) -> int:
    """Memory-aware partition sizing (Dask's ``blocksize="auto"``).

    A partition's in-memory footprint is a small multiple of its CSV
    bytes; keep roughly 24 working partitions inside the budget so one
    in-flight partition plus partial aggregates always fit.
    """
    from repro.memory import current_memory_manager

    budget = current_memory_manager().budget
    if budget is None:
        return default
    return min(default, max(1 << 12, budget // 24))


class DaskBackend(Backend):
    """Lazy partitioned execution with out-of-core spilling."""

    name = "dask"
    is_lazy = True

    def __init__(self, partition_bytes: int = DEFAULT_PARTITION_BYTES):
        self.partition_bytes = partition_bytes
        self.store = PartitionStore()
        self.evaluator = Evaluator(self.store)

    def read_csv(self, path: str, usecols=None, index_col=None,
                 **options) -> DaskFrame:
        """The baseline Dask mode's user API: a CSV ``scan`` (LaFP plans
        never call this; they carry ``scan`` nodes)."""
        args = {"format": "csv", "path": path, **options}
        if usecols is not None:
            args["columns"] = list(usecols)
        frame = self.scan(args)
        if index_col is not None:
            # Dask's read_csv lacks index_col; emulate via set_index.
            frame = frame.set_index(index_col)
        return frame

    def scan(self, args: dict) -> DaskFrame:
        """Source scan, kept lazy: one expression partition per source
        partition, so depth-first evaluation streams pieces through the
        elementwise pipeline.  Partition sizing respects the
        memory-aware target."""
        from repro.backends.dask_sim.expr import scan_expr
        from repro.io import Predicate, resolve_source

        options = dict(args)
        if args.get("partitions") is None:
            # Memory-aware re-chunking is only safe on an UNPRUNED scan:
            # pruned partition indices were computed by the optimizer
            # against the source's own chunking, so re-chunking here
            # would make them select the wrong byte ranges.
            options.setdefault(
                "partition_bytes", _auto_partition_bytes(self.partition_bytes)
            )
        from repro.core.session import current_session

        # same metastore the optimizer pruned with: sub-file partition
        # stats change the partition set, not just its statistics.
        source = resolve_source(options, metastore=current_session().metastore)
        parts = source.select_partitions(args.get("partitions"))
        columns = args.get("columns")
        predicate = Predicate.from_arg(args.get("predicate"))
        expr = scan_expr(source, parts, columns=columns, predicate=predicate)
        try:
            schema = source.schema()
        except OSError:
            schema = []
        if columns is not None:
            keep = set(columns)
            schema = [c for c in schema if c in keep]
        return DaskFrame(expr, self.evaluator, columns=schema)

    def from_data(self, data, **kwargs) -> DaskFrame:
        return self.from_pandas(DataFrame(data))

    def from_pandas(self, value):
        if isinstance(value, Series):
            frame = from_pandas(value.to_frame("__series__"), self.evaluator)
            return frame["__series__"]
        if isinstance(value, DataFrame):
            return from_pandas(value, self.evaluator)
        return value

    def adopt_cached(self, value):
        # One partition holding the exact eager value: compute() of a
        # single-partition expr returns the partition untouched, so the
        # result's index and name survive (from_pandas re-splits by
        # position and would reset both).
        from repro.backends.dask_sim.expr import materialized_expr

        if not isinstance(value, (DataFrame, Series)):
            return value
        expr = materialized_expr([self.evaluator.store.put(value)])
        if isinstance(value, Series):
            return DaskSeries(expr, self.evaluator, name=value.name)
        return DaskFrame(expr, self.evaluator, columns=list(value.columns))

    def to_datetime(self, series: DaskSeries) -> DaskSeries:
        from repro.backends.dask_sim.expr import blockwise_expr
        from repro.frame import to_datetime as _to_datetime

        if isinstance(series, Series):
            return _to_datetime(series)
        expr = blockwise_expr(
            lambda parts, p: _to_datetime(parts[0]), [series.expr], "to_datetime"
        )
        return DaskSeries(expr, self.evaluator, name=series.name)

    def concat(self, frames):
        from repro.backends.dask_sim.expr import concat_expr
        from repro.frame import concat as _concat

        lazy = [f for f in frames if isinstance(f, DaskCollection)]
        if not lazy:
            return _concat(frames)
        wrapped = [
            f if isinstance(f, DaskCollection) else self.from_pandas(f)
            for f in frames
        ]
        expr = concat_expr([w.expr for w in wrapped])
        if isinstance(wrapped[0], DaskSeries):
            return DaskSeries(expr, self.evaluator, name=wrapped[0].name)
        return DaskFrame(expr, self.evaluator, columns=wrapped[0].columns)

    # -- materialization ---------------------------------------------------

    def materialize(self, value):
        if isinstance(value, (DaskFrame, DaskSeries, DaskScalar)):
            return value.compute()
        return value

    def persist(self, value):
        if isinstance(value, (DaskFrame, DaskSeries)):
            return value.persist()
        return value
