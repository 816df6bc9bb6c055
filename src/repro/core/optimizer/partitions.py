"""Partition cut: the one partition-wise lowering, on every engine.

The last lowering pass, behind the size gate
(:func:`repro.core.optimizer.shuffle.lower_shuffle_nodes`).  It builds
what a Dask collection is -- a list of keyed per-partition tasks,
finalized by a concat over them (Dask's ``core_blockwise`` and
``__dask_postcompute__``) -- out of the ops every engine already runs:

- a ``scan`` over N source partitions becomes N scans, each carrying
  its :class:`~repro.io.source.Partition` (byte range included), so any
  worker process reads exactly that piece;
- a row-local op becomes N copies, copy ``i`` reading piece ``i`` of
  each input (a scalar input is read whole by every copy);
- a group-by aggregate becomes N ``partial_agg`` and one
  ``combine_agg``; a holistic one (``nunique``, ``std``) a hash shuffle
  -- each key whole in one bucket -- and per bucket a ``shuffle_read``
  and an exact ``partial_agg``, stacked by one ``combine_agg``;
- a scalar reduction becomes N partial reductions and one
  ``combine_agg``; ``drop_duplicates`` / ``nlargest`` / ``nsmallest`` /
  ``head`` N copies, a ``concat`` and the op once more, each row keeping
  the label the concat of the whole pieces gives it;
- a merge becomes N merges against the gathered right side, each
  followed by a ``compact`` so its piece can be freed, when the
  broadcast rule allows, else the hash shuffle: per side one
  ``shuffle_write`` per piece appending to one store, per bucket a
  ``shuffle_read`` + ``merge`` + ``compact``, and one restitching
  ``combine_agg``;
- a ``concat`` of cut frames is the list of their pieces.

Which scans are cut is the engine's policy
(:attr:`~repro.backends.engine.EngineSpec.out_of_core`): every scan on
the Dask engine; on pandas and Modin only the scans over the size limit
that reach a merge or a group-by through row-local ops, so a plan that
fits is never cut.  Under a limit the right side of a merge is
broadcast when its estimate is within a quarter of the limit, and a
shuffle takes ``optimizer.shuffle_partitions`` buckets, or enough for a
quarter of the limit each; with no limit a one-piece right side is
broadcast and a shuffle takes a bucket per piece.

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

from repro.frame.groupby import agg_outputs, decompose
from repro.frame.merge import POSITION_COLUMNS, can_broadcast
from repro.graph.node import Node
from repro.graph.scheduler.stats import count
from repro.graph.taskgraph import (ConsumerIndex, collect_subgraph,
                                   topological_order)

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
#: most buckets a size-derived shuffle takes.
_MAX_BUCKETS = 32


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
    more (first-occurrence dedup, top-n and head are exact so).

    A row keeps the label the gather would give it -- its position in
    the concat of the pieces: ``op`` runs on each piece relabelled by
    position, and the concat shifts each result by the rows of the
    pieces before it.  A head needs neither: its rows lead the concat,
    whose own renumbering gives them their positions."""
    if len(parts) == 1 or op == "head":
        return Node(op, [gather(blockwise(op, args, [parts]))], dict(args))
    results = [Node(op, [Node("reset_index", [part], {"drop": True})],
                    dict(args)) for part in parts]
    counts = [Node("frame_len", [part]) for part in parts]
    return Node(op, [Node("concat", results + counts, {"shifted": True})],
                dict(args))


def shuffle(parts: Sequence[Node], keys: Sequence[str], n_buckets: int,
            pos_name: Optional[str] = None) -> Node:
    """Hash-split a cut frame into one store: piece ``i``'s
    ``shuffle_write`` appends to piece ``i - 1``'s store, numbering its
    rows on from there in ``pos_name`` if named.  Returns the last
    write, whose value is the filled store."""
    args = {"keys": list(keys), "n_buckets": n_buckets,
            **({"pos_name": pos_name} if pos_name else {})}
    store: List[Node] = []
    for part in parts:
        store = [Node("shuffle_write", [part] + store, dict(args))]
    return store[0]


def combine_args(keys: List[str], outputs: List[dict],
                 series: Optional[str], as_index: bool) -> dict:
    """The args of the ``combine_agg`` that folds stacked partials into
    ``outputs``: a Series named ``series``, else a frame."""
    shape = ({"output": "frame", "as_index": as_index} if series is None
             else {"output": "series", "name": series})
    return {"kind": "agg", "keys": keys, "outputs": outputs, **shape}


def groupby_spec(node: Node) -> Optional[Tuple[
        List[str], List[Tuple[str, str, str]], Optional[str], bool]]:
    """``(keys, triples, series name, as_index)`` of a group-by node --
    one ``(source column, func, output label)`` per output, in output
    order, as :meth:`repro.frame.groupby.GroupBy.aggregate` takes them;
    None when the node is not lowerable."""
    keys_arg = node.args.get("keys")
    keys = [keys_arg] if isinstance(keys_arg, str) else list(keys_arg or ())
    if not keys:
        return None
    if node.op == "groupby_size":
        return keys, [(keys[0], "size", "size")], "size", True
    if node.op == "groupby_agg":
        spec = {node.args.get("column"): node.args.get("func")}
    else:
        spec = node.args.get("spec")
    if not isinstance(spec, dict):
        return None
    triples = agg_outputs(spec)
    if not all(
        isinstance(column, str) and isinstance(func, str)
        for column, func, _label in triples
    ):
        return None
    if node.op == "groupby_agg":
        return keys, triples, node.args.get("column"), True
    return keys, triples, None, bool(node.args.get("as_index", True))


def aggregate(parts: Sequence[Node], keys: List[str], triples,
              series: Optional[str] = None, as_index: bool = True,
              n_buckets: Optional[int] = None) -> Optional[Node]:
    """N ``partial_agg`` and the ``combine_agg`` folding them; for a
    holistic function the hash shuffle into ``n_buckets`` (default: one
    per piece), an exact aggregate per bucket and their stack -- groups
    never straddle buckets.  ``None`` when a holistic spec aggregates a
    key column (its label would collide with the key's)."""
    plan = decompose(triples)
    if plan is not None:
        pairs, outputs = plan
        partials = blockwise("partial_agg", {"keys": keys, "pairs": pairs},
                             [parts])
        return Node("combine_agg", partials,
                    combine_args(keys, outputs, series, as_index))
    if {name for column, _f, label in triples
            for name in (column, label)} & set(keys):
        return None
    n_buckets = n_buckets or len(parts)
    store = shuffle(parts, keys, n_buckets)
    buckets = [
        Node("partial_agg",
             [Node("shuffle_read", [store], {"bucket": i})],
             {"keys": keys, "pairs": list(triples)})
        for i in range(n_buckets)
    ]
    return Node("combine_agg", buckets, combine_args(keys, [
        {"label": label, "mode": "direct", "partial": label,
         "func": "first"}
        for _column, _func, label in triples
    ], series, as_index))


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
         keys: Tuple[List[str], List[str]],
         broadcast: Optional[bool] = None,
         n_buckets: Optional[int] = None) -> List[Node]:
    """A merge of two cut sides.  When ``broadcast`` (default: the right
    side is one piece) and the broadcast rule allow, one merge per left
    piece against the gathered right side, each compacted so the piece
    can die with its merge; else the bucket shuffle into ``n_buckets``
    (default: one per piece of the longer side), whose restitched
    result is one piece."""
    if broadcast is None:
        broadcast = len(right) == 1
    if broadcast and (len(left) == 1
                      or can_broadcast(args.get("how", "inner"))):
        whole = gather(right)
        merged = [Node("merge", [part, whole], dict(args)) for part in left]
        if len(merged) == 1:
            return merged
        count(broadcast_joins=1)
        return [Node("compact", [piece]) for piece in merged]
    n_buckets = n_buckets or max(len(left), len(right))
    stores = [shuffle(parts, side_keys, n_buckets, pos_name)
              for parts, side_keys, pos_name in zip((left, right), keys,
                                                    POSITION_COLUMNS)]
    pieces = []
    for i in range(n_buckets):
        reads = [Node("shuffle_read", [store], {"bucket": i})
                 for store in stores]
        # re-own the result's payload so the (much larger) bucket
        # frames can release as soon as the bucket-local merge is done
        pieces.append(Node("compact", [Node("merge", reads, dict(args))]))
    return [Node("combine_agg", pieces,
                 {"kind": "merge", "pos_names": list(POSITION_COLUMNS)})]


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


def _side_bytes(node: Node) -> Optional[int]:
    """An upper bound of a frame's bytes: its leaves' estimates (a
    scan's stamped ``est_bytes``, a held value's size), ``None`` when
    one is unknown."""
    total = 0
    for leaf in collect_subgraph([node]):
        if leaf.inputs:
            continue
        size = (leaf.args.get("est_bytes") if leaf.op == "scan"
                else getattr(leaf.result, "nbytes", None))
        if size is None:
            return None
        total += int(size)
    return total


def _over(scan: Node, limit: Optional[int]) -> bool:
    """Is the scan's stamped estimate over the size limit?"""
    return limit is not None and int(scan.args.get("est_bytes") or 0) > limit


def _bucket_count(opts, pieces: int, est: Optional[int],
                  limit: Optional[int]) -> int:
    """``optimizer.shuffle_partitions``, else a bucket per piece -- and
    under a limit at least enough for a quarter of it each (at least 2,
    at most :data:`_MAX_BUCKETS`)."""
    explicit = opts.get("optimizer.shuffle_partitions")
    if explicit:
        return int(explicit)
    if limit is None:
        return pieces
    sized = _MAX_BUCKETS if est is None else -(-est // max(1, limit // 4))
    return max(2, min(_MAX_BUCKETS, max(pieces, sized)))


def _lowerable(node: Node) -> bool:
    from repro.analysis.plan.schema import merge_key_columns

    if node.op == "merge":
        return len(node.inputs) == 2 and joinable(merge_key_columns(node))
    return node.op in _GROUPBY_OPS and groupby_spec(node) is not None


def _oversized_feeds(order: Sequence[Node], limit: int) -> Set[int]:
    """Ids of the scans over ``limit`` that reach a merge or a group-by
    through row-local ops: what the pandas / Modin policy cuts."""
    stack = [inp for node in order if _lowerable(node)
             for inp in node.inputs]
    seen: Set[int] = set()
    found: Set[int] = set()
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node.op == "scan":
            if _over(node, limit):
                found.add(node.id)
        elif node.op in ROW_LOCAL_OPS:
            stack.extend(node.inputs)
    return found


def cut_partitions(roots: List[Node], session, limit: Optional[int],
                   every_scan: bool,
                   index: Optional[ConsumerIndex] = None) -> Tuple[int, int]:
    """Cut the plan under ``roots`` per partition (see the module
    docstring): every scan when ``every_scan``, else the oversized scans
    feeding a merge or group-by.  Returns the merges and group-bys
    lowered over a scan bigger than ``limit``, and the number of nodes
    cut.  The scans under a pin (a root marked ``persist``) stay whole:
    a pin is held whole, and gathering its pieces would hold them and
    their concat at once."""
    from repro.analysis.plan.schema import merge_key_columns
    from repro.frame import DataFrame, Series

    opts = session.options
    piece_bytes = partition_bytes(session.backend.partition_bytes,
                                  session.memory.budget)
    index = index or ConsumerIndex(roots)
    order = topological_order(roots)
    held = {node.id for node in topological_order(
        [root for root in roots if root.persist])}
    wanted = None if every_scan else _oversized_feeds(order, limit)
    pieces: Dict[int, List[Node]] = {}
    #: cut node id -> the id its pieces' rows pair up by
    origins: Dict[int, int] = {}
    scalars: Set[int] = set()
    #: cut nodes whose pieces come from a scan over the limit
    oversized: Set[int] = set()
    lowered = cut = 0

    def whole(node: Node) -> None:
        parts = pieces.pop(node.id, None)
        if parts is not None and len(parts) > 1:
            index.substitute(node, Node("concat", parts))

    for node in order:
        for dep in node.order_deps:
            whole(dep)
        if node.spec.scalar or (node.op == "held" and not isinstance(
                node.result, (DataFrame, Series))):
            scalars.add(node.id)
        if node.op == "scan":
            if node.id in held or (wanted is not None
                                   and node.id not in wanted):
                continue
            try:
                parts = scan_parts(node.args, session.metastore, piece_bytes)
            except OSError:  # a missing path: the run reports it
                continue
            # a scan over the limit is lowered even when it is one piece,
            # and then is its own piece
            big = _over(node, limit)
            if len(parts) > 1 or big:
                pieces[node.id] = parts if len(parts) > 1 else [node]
                origins[node.id] = node.id
                if big:
                    oversized.add(node.id)
                cut += 1
            continue
        ins = [pieces.get(inp.id, [inp]) for inp in node.inputs]
        multi = [inp for inp in node.inputs if inp.id in pieces]
        if not multi:
            continue
        cut += 1
        if any(inp.id in oversized for inp in multi):
            oversized.add(node.id)
        origin = {origins[inp.id] for inp in multi}
        aligned = len(origin) == 1 and all(
            inp.id in pieces or inp.id in scalars for inp in node.inputs)
        if node.op in ROW_LOCAL_OPS and aligned:
            pieces[node.id] = (blockwise(node.op, node.args, ins)
                               if any(len(parts) > 1 for parts in ins)
                               else [node])
            origins[node.id] = (node.id if node.op in _ROW_DROPPING
                                else origin.pop())
            continue
        if node.op == "concat":
            pieces[node.id] = [part for parts in ins for part in parts]
            origins[node.id] = node.id
            continue
        replacement = None
        if node.op == "merge" and len(ins) == 2:
            keys = merge_key_columns(node)
            if joinable(keys):
                broadcast, est = None, None
                if limit is not None:
                    left, right = map(_side_bytes, node.inputs)
                    broadcast = right is not None and right <= max(
                        1, limit // 4)
                    if left is not None and right is not None:
                        est = left + right
                parts = join(ins[0], ins[1], node.args, keys, broadcast,
                             _bucket_count(opts, max(map(len, ins)), est,
                                           limit))
                lowered += node.id in oversized
                if len(parts) > 1:
                    pieces[node.id], origins[node.id] = parts, node.id
                    continue
                replacement = parts[0]
        elif len(ins) == 1 and node.op in _GROUPBY_OPS:
            spec = groupby_spec(node)
            if spec is not None:
                est = None
                if limit is not None and decompose(spec[1]) is None:
                    est = _side_bytes(node.inputs[0])
                replacement = aggregate(
                    ins[0], *spec,
                    n_buckets=_bucket_count(opts, len(ins[0]), est, limit))
                lowered += replacement is not None and node.id in oversized
        elif len(ins) == 1 and node.op in _REDUCTION_OPS:
            replacement = reduce_scalar(ins[0], node.op,
                                        node.args.get("func"))
        elif len(ins) == 1 and node.op in _RECOMBINED_OPS:
            replacement = recombine(ins[0], node.op, node.args)
        if replacement is not None:
            if node.id in scalars:
                scalars.add(replacement.id)
            index.substitute(node, replacement)
        else:
            for inp in multi:
                whole(inp)
    for root in list(roots):
        whole(root)
    return lowered, cut
