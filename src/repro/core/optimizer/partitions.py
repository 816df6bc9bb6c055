"""Partition cut: a Dask-engine plan is the task graph cut per partition.

The last lowering pass on an ``out_of_core`` engine (the Dask sim), run
after shuffle lowering.  It builds what a Dask collection is -- a list
of keyed per-partition tasks, finalized by a concat over them
(Dask's ``core_blockwise`` and ``__dask_postcompute__``) -- out
of the ops every engine already runs:

- a ``scan`` over N source partitions becomes N scans, each carrying
  its :class:`~repro.io.source.Partition` (byte range included), so any
  worker process reads exactly that piece;
- a row-local op becomes N copies, copy ``i`` reading piece ``i`` of
  each input (a scalar input is read whole by every copy);
- a group-by aggregate becomes N ``partial_agg`` and one
  ``combine_agg``; a scalar reduction N partial reductions and one
  ``combine_agg``; ``drop_duplicates`` / ``nlargest`` / ``nsmallest`` /
  ``head`` N copies, a ``concat`` and the op once more;
- a merge becomes N merges against a one-piece right side when the
  broadcast rule allows, else the hash shuffle: a ``shuffle_write`` per
  piece, per bucket a ``shuffle_read`` + ``merge`` + ``compact``, and
  one restitching ``combine_agg``;
- a ``concat`` of cut frames is the list of their pieces.

Every other op -- the ones Dask cannot run partition-wise: global
sorts, window functions, ``apply``, ``describe`` ... -- reads its inputs
whole, a ``concat`` of their pieces followed by the eager op.  That is
the pandas fallback of section 2.6, decided here, not at run time.
Inputs cut differently (a held value against a fresh scan, or two
frames filtered differently) cannot pair rows by position and take the
fallback too, as does whatever a root or an ordering edge needs whole.
A pin's plan is not cut, nor is a plan whose scans are one piece each.

The helpers build fresh nodes, so baseline Dask mode
(:mod:`repro.backends.dask_sim.frame`) builds its collections with the
same expansions and runs them with the LaFP passes off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.optimizer.shuffle import (
    bucket_join, combine_args, groupby_spec,
)
from repro.frame.groupby import decompose
from repro.frame.merge import POSITION_COLUMNS, can_broadcast
from repro.graph.node import Node
from repro.graph.taskgraph import topological_order

#: ops whose output piece ``i`` needs only piece ``i`` of each input.
ROW_LOCAL_OPS = frozenset({
    "identity", "getitem_column", "getitem_columns", "filter", "setitem",
    "binop", "unop", "str_method", "dt_field", "isin", "between", "isna",
    "notna", "series_fillna", "series_astype", "series_map",
    "to_datetime", "astype", "fillna", "dropna", "rename", "drop",
    "round", "abs", "to_frame_series", "set_index", "compact",
})
#: row-local ops that drop rows: their pieces pair with no other frame's.
_ROW_DROPPING = frozenset({"filter", "dropna"})
#: ops exact over the concat of their own per-piece results.
_RECOMBINED_OPS = frozenset({"drop_duplicates", "nlargest", "nsmallest",
                             "head"})
_GROUPBY_OPS = frozenset({"groupby_agg", "groupby_agg_multi",
                          "groupby_size"})
_REDUCTION_OPS = frozenset({"series_agg", "series_len", "frame_len"})
#: below this a budgeted run does not cut finer (scaled-down Dask
#: ``blocksize="auto"``: ~24 working partitions inside the budget).
_MIN_PARTITION_BYTES = 1 << 12
_PARTITIONS_PER_BUDGET = 24


# -- expansion helpers (shared with baseline Dask mode) ----------------


def blockwise(op: str, args: dict,
              inputs: Sequence[Sequence[Node]]) -> List[Node]:
    """N copies of ``op``: copy ``i`` reads piece ``i`` of each input; a
    one-piece input is read whole by every copy."""
    n = max(len(parts) for parts in inputs)
    return [
        Node(op, [parts[i] if len(parts) > 1 else parts[0]
                  for parts in inputs], dict(args))
        for i in range(n)
    ]


def gather(parts: Sequence[Node]) -> Node:
    """The whole value of a cut frame: the concat of its pieces."""
    return parts[0] if len(parts) == 1 else Node("concat", list(parts))


def recombine(parts: Sequence[Node], op: str, args: dict) -> Node:
    """``op`` per piece, the concat of the results, and ``op`` once
    more (first-occurrence dedup, top-n and head are exact so)."""
    return Node(op, [gather(blockwise(op, args, [parts]))], dict(args))


def aggregate(parts: Sequence[Node], keys: List[str], triples,
              series: Optional[str] = None,
              as_index: bool = True) -> Optional[Node]:
    """N ``partial_agg`` and the ``combine_agg`` folding them, or
    ``None`` when a function is holistic."""
    plan = decompose(triples)
    if plan is None:
        return None
    pairs, outputs = plan
    partials = blockwise("partial_agg", {"keys": keys, "pairs": pairs},
                         [parts])
    return Node("combine_agg", partials,
                combine_args(keys, outputs, series, as_index))


def reduce_scalar(parts: Sequence[Node], op: str,
                  func: Optional[str] = None) -> Optional[Node]:
    """N partial reductions and the ``combine_agg`` folding them, or
    ``None`` when ``func`` has no partials (``std``, ``median``).  A
    mean's partials are the sums, then the counts."""
    if op in ("series_len", "frame_len"):
        partials, fold = blockwise(op, {}, [parts]), "sum"
    elif func in ("sum", "count", "min", "max"):
        partials = blockwise("series_agg", {"func": func}, [parts])
        fold = "sum" if func == "count" else func
    elif func == "mean":
        partials = (blockwise("series_agg", {"func": "sum"}, [parts])
                    + blockwise("series_agg", {"func": "count"}, [parts]))
        fold = "mean"
    else:
        return None
    return Node("combine_agg", partials, {"kind": "scalar", "func": fold})


def join(left: Sequence[Node], right: Sequence[Node], args: dict,
         keys: Tuple[List[str], List[str]]) -> List[Node]:
    """A merge of two cut sides: per-piece merges against a one-piece
    right side when the broadcast rule allows, else the bucket shuffle,
    whose restitched result is one piece."""
    if len(right) == 1 and (len(left) == 1
                            or can_broadcast(args.get("how", "inner"))):
        return blockwise("merge", args, [left, right])
    n_buckets = max(len(left), len(right))
    writes = [
        [Node("shuffle_write", [part],
              {"keys": list(side_keys), "n_buckets": n_buckets,
               "pos_name": pos_name, "pos_base": i << 32})
         for i, part in enumerate(parts)]
        for parts, side_keys, pos_name in zip((left, right), keys,
                                              POSITION_COLUMNS)
    ]
    return [bucket_join(writes[0], writes[1], n_buckets, args)]


def joinable(keys) -> bool:
    """Known keys that do not collide with the shuffle's position
    columns."""
    left, right = keys
    return (left is not None and right is not None
            and not set(POSITION_COLUMNS) & (set(left) | set(right)))


def partition_bytes(default: int, budget: Optional[int]) -> int:
    """Target bytes per piece: ``default``, smaller under a budget."""
    if budget is None:
        return default
    return min(default, max(_MIN_PARTITION_BYTES,
                            budget // _PARTITIONS_PER_BUDGET))


def scan_parts(args: dict, metastore, piece_bytes: int) -> List[Node]:
    """One ``scan`` per selected source partition, each carrying its
    :class:`~repro.io.source.Partition`; the first also carries the
    source's partition total, so a cut scan counts it once."""
    from repro.io.source_table import session_source

    args = dict(args)
    if args.get("partitions") is None:
        # re-chunk only an unpruned scan: pruned partitions are picks
        # from the source's own chunking
        args.setdefault("partition_bytes", piece_bytes)
        total = None
    else:
        total = args.get("partitions_total")
    source = session_source(args, metastore)
    parts = source.select_partitions(args.get("partitions"))
    if len(parts) <= 1:
        return [Node("scan", [], args)]
    total = len(parts) if total is None else total
    pieces = []
    for i, part in enumerate(parts):
        piece = dict(args, partitions=[part],
                     partitions_total=None if i else total)
        piece.pop("est_bytes", None)
        est = source.estimated_bytes(columns=args.get("columns"),
                                     partitions=[part])
        if est is not None:
            piece["est_bytes"] = int(est)
        pieces.append(Node("scan", [], piece))
    return pieces


# -- the pass ------------------------------------------------------------


def cut_partitions(roots: Sequence[Node], session,
                   pins: Sequence[Node] = ()) -> int:
    """Cut the plan under ``roots`` per partition in place (see the
    module docstring); returns the number of nodes cut.  The scans under
    ``pins`` stay whole: a pin is held whole, and gathering its pieces
    would hold them and their concat at once."""
    from repro.analysis.plan.schema import merge_key_columns
    from repro.frame import DataFrame, Series

    piece_bytes = partition_bytes(session.backend.partition_bytes,
                                  session.memory.budget)
    held = {node.id for node in topological_order(list(pins))}
    pieces: Dict[int, List[Node]] = {}
    #: cut node id -> the id its pieces' rows pair up by
    origins: Dict[int, int] = {}
    scalars: Set[int] = set()
    cut = 0

    def whole(node: Node) -> None:
        parts = pieces.get(node.id)
        if parts is not None and len(parts) > 1:
            node.op, node.inputs, node.args = "concat", list(parts), {}
            pieces[node.id] = [node]

    for node in topological_order(list(roots)):
        for dep in node.order_deps:
            whole(dep)
        if node.spec.scalar or (node.op == "held" and not isinstance(
                node.result, (DataFrame, Series))):
            scalars.add(node.id)
        if node.op == "scan":
            if node.args.get("stream") or node.id in held:
                continue
            try:
                parts = scan_parts(node.args, session.metastore, piece_bytes)
            except OSError:  # a missing path: the run reports it
                continue
            if len(parts) > 1:
                pieces[node.id], origins[node.id] = parts, node.id
                cut += 1
            continue
        ins = [pieces.get(inp.id, [inp]) for inp in node.inputs]
        multi = [inp for inp, parts in zip(node.inputs, ins)
                 if len(parts) > 1]
        if not multi:
            continue
        cut += 1
        origin = {origins[inp.id] for inp in multi}
        aligned = len(origin) == 1 and all(
            len(parts) > 1 or inp.id in scalars
            for inp, parts in zip(node.inputs, ins))
        if node.op in ROW_LOCAL_OPS and aligned:
            pieces[node.id] = blockwise(node.op, node.args, ins)
            origins[node.id] = (node.id if node.op in _ROW_DROPPING
                                else origin.pop())
            continue
        if node.op == "concat":
            pieces[node.id] = [part for parts in ins for part in parts]
            origins[node.id] = node.id
            continue
        replacement = None
        if node.op == "merge" and len(ins) == 2 and not any(
                inp.args.get("stream") for inp in node.inputs):
            keys = merge_key_columns(node)
            if joinable(keys):
                parts = join(ins[0], ins[1], node.args, keys)
                if len(parts) > 1:
                    pieces[node.id], origins[node.id] = parts, node.id
                    continue
                replacement = parts[0]
        elif len(ins) == 1 and node.op in _GROUPBY_OPS:
            spec = groupby_spec(node)
            if spec is not None:
                replacement = aggregate(ins[0], *spec)
        elif len(ins) == 1 and node.op in _REDUCTION_OPS:
            replacement = reduce_scalar(ins[0], node.op,
                                        node.args.get("func"))
        elif len(ins) == 1 and node.op in _RECOMBINED_OPS:
            replacement = recombine(ins[0], node.op, node.args)
        if replacement is not None:
            node.op, node.inputs = replacement.op, replacement.inputs
            node.args = replacement.args
        else:
            for inp in multi:
                whole(inp)
    for root in roots:
        whole(root)
    return cut
