"""Per-node byte estimates: the static order's input and the stats'
predicted column.

Every node gets a *predicted in-memory size*.  The static ordering pass
(:mod:`repro.graph.scheduler.order`) ranks branches by them and
simulates the run's peak; :class:`~repro.graph.scheduler.stats.
ExecutionStats` records them beside the actual bytes.  Admission does
not read them: under a budget it runs one task at a time whatever the
estimates say, because they are too rough to gate on.

- ``scan`` nodes get width x rows from statistics: they ask their
  :class:`~repro.io.source.DataSource` (per-partition byte/row
  estimates from the metastore, narrowed by folded projection and
  pruned partitions; the file size on disk without statistics),
- operator nodes inherit their largest input's estimate and rescale it
  by the *inferred schema width ratio* (the analyzer's forward schema
  pass, :func:`repro.analysis.plan.schema.infer_schemas`): a projection
  keeping 2 of 10 equally-wide columns costs ~1/5 of its input, a
  series extraction costs one column, a setitem adds one.  Nodes whose
  schema is unknown keep the old bounded-by-largest-input behaviour.

Estimates are advisory: a missing estimate counts as zero bytes in the
static order, never blocks execution, and the recorded
estimated-vs-actual pairs in
:class:`~repro.graph.scheduler.stats.ExecutionStats` are how the
heuristic is audited.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Optional, Sequence

from repro.graph.node import Node

#: a scalar result (aggregate, len) is a few machine words.
_SCALAR_BYTES = 64

#: per-value in-memory widths by inferred dtype; strings are a pointer
#: plus a short heap payload, unknown dtypes split the difference.
_DTYPE_WIDTHS = MappingProxyType({
    "int64": 8, "float64": 8, "bool": 1, "datetime64[ns]": 8,
    "category": 2,
})
_OBJECT_WIDTH = 32
_DEFAULT_WIDTH = 16


def estimate_node_bytes(
    order: Sequence[Node], session
) -> Dict[int, int]:
    """Estimated output bytes per node id (absent = unknown).

    ``order`` must be topological (estimates propagate forward).
    """
    metastore = getattr(session, "metastore", None) if session else None
    schemas = _infer_schemas(order, session)
    estimates: Dict[int, Optional[int]] = {}
    for node in order:
        estimates[node.id] = _estimate(node, estimates, metastore, schemas)
    return {k: v for k, v in estimates.items() if v is not None}


def _infer_schemas(order: Sequence[Node], session) -> dict:
    # Imported lazily: the analyzer sits above graph/ in the layering,
    # and estimation must keep working even if inference breaks.
    try:
        from repro.analysis.plan.schema import infer_schemas

        return infer_schemas(order, session)
    except Exception:  # noqa: BLE001 - estimates are advisory
        return {}


def schema_width(schema) -> Optional[int]:
    """Predicted per-row byte width of a node's inferred schema, or
    ``None`` when its columns are unknown (or it has none)."""
    columns = getattr(schema, "columns", None)
    if not columns:
        return None
    total = 0
    for column in columns:
        dtype = schema.dtype_of(column)
        if dtype is None:
            total += _DEFAULT_WIDTH
        elif dtype in _DTYPE_WIDTHS:
            total += _DTYPE_WIDTHS[dtype]
        elif dtype == "object":
            total += _OBJECT_WIDTH
        else:
            total += _DEFAULT_WIDTH
    return total


def _estimate(
    node: Node,
    estimates: Dict[int, Optional[int]],
    metastore,
    schemas: dict,
) -> Optional[int]:
    op = node.op
    if op == "scan":
        if node.args.get("stream"):
            # a streaming scan materializes nothing up front; its
            # consumer pays per partition
            return _SCALAR_BYTES
        return estimate_scan_bytes(node, metastore)
    total = node.args.get("est_total")
    if total is not None and op in ("shuffle_write", "shuffle_read"):
        # working set of the write, output size of the read: one bucket
        buckets = max(1, int(node.args.get("n_buckets", 1)))
        return max(1, int(total) // buckets)
    if total is not None and op == "partial_agg":
        # bounded by one partition of partials
        parts = max(1, int(node.args.get("n_parts", 1)))
        return max(1, int(total) // parts)
    if op == "from_cached":
        nbytes = node.args.get("nbytes")
        return int(nbytes) if isinstance(nbytes, (int, float)) else None
    if op in ("from_data", "from_pandas", "held"):
        payload = (node.result if op == "held"
                   else node.args.get("data") or node.args.get("frame"))
        nbytes = getattr(payload, "nbytes", None)
        return int(nbytes) if isinstance(nbytes, (int, float)) else None
    if node.spec.scalar:
        return _SCALAR_BYTES
    widest: Optional[int] = None
    widest_input: Optional[Node] = None
    for inp in node.inputs:
        inherited = estimates.get(inp.id)
        if inherited is not None and (widest is None or inherited > widest):
            widest, widest_input = inherited, inp
    if widest is None or widest_input is None:
        return None
    if op in ("head", "tail"):
        # a handful of rows: negligible next to its input.
        return min(widest, 4096)
    if op in ("merge", "concat", "combine_agg"):
        return sum(
            e for e in (estimates.get(inp.id) for inp in node.inputs)
            if e is not None
        )
    # Row-preserving transforms, filters, aggregations: bounded by the
    # widest input, rescaled by the inferred width ratio when the schema
    # pass pinned down both sides' columns.
    out_width = schema_width(schemas.get(node.id))
    in_width = schema_width(schemas.get(widest_input.id))
    if out_width is not None and in_width:
        return max(1, (widest * out_width) // in_width)
    return widest


def estimate_scan_bytes(node: Node, metastore) -> Optional[int]:
    """Predicted in-memory bytes of one ``scan`` leaf, as its source
    sees it (``None`` = unknown): the one size model of a read, shared
    by the static order and by automatic backend choice."""
    stamped = node.args.get("est_bytes")
    if stamped is not None:
        # the pruning pass computed this with the source in hand
        return int(stamped)
    from repro.io.source_table import session_source

    try:
        return session_source(node.args, metastore).estimated_bytes(
            columns=node.args.get("columns"),
            partitions=node.args.get("partitions"),
        )
    except Exception:  # noqa: BLE001 - missing path, unknown format
        return None
