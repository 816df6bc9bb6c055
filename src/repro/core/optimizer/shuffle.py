"""Shuffle lowering: partition-wise merge / groupby over big scans.

Rewrites ``merge`` and ``groupby_agg`` / ``groupby_agg_multi`` nodes
whose inputs are partitioned scans too big for the size limit into a
hash-partition -> spill -> stream pipeline (dask-expr's Merge ->
Blockwise/Shuffle/broadcast lowering is the pattern, ROADMAP item 1):

- **broadcast** -- when the right merge side's byte estimate fits in a
  quarter of the limit, only the left scan is switched to streaming
  (``stream=True``) and the merge runs partition-at-a-time against the
  materialized right side.
- **shuffle merge** -- both scans stream into ``shuffle_write`` nodes
  that hash-split rows on the join key into P spillable buckets (plus a
  global row-position column per side); P independent bucket-pair
  ``merge`` nodes then feed one ``combine_agg`` that restores the exact
  in-memory row order from the position columns.
- **partial aggregation** -- a groupby whose functions all decompose
  (:func:`repro.frame.groupby.decompose` owns the table) aggregates per
  partition in a ``partial_agg`` node; ``combine_agg`` re-aggregates the
  stacked partials.  Holistic functions (nunique / std) fall back to
  the shuffle: each key lands wholly in one bucket, so per-bucket
  aggregation is exact.

The pass mutates the consuming node in place (a session only ever hands
it a private copy of the user's graph) and is gated on
``optimizer.shuffle`` plus an actual size limit:
``optimizer.shuffle_threshold_bytes`` if set, else the session's
``memory.budget`` headroom.  A lazy engine is never lowered: its scans
have no streamed form, and its own merge plans by the same rules
(:mod:`repro.frame.merge`) and runs the same kernels
(:mod:`repro.backends.shuffle_ops`) over its partitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.frame.groupby import agg_outputs, decompose
from repro.frame.merge import POSITION_COLUMNS, can_broadcast
from repro.graph.node import Node
from repro.graph.taskgraph import collect_subgraph, consumer_counts

_MAX_BUCKETS = 32


def lower_shuffle_nodes(
    roots: Sequence[Node],
    session,
    live_nodes: Optional[List[Node]] = None,
) -> int:
    """Lower eligible merge/groupby nodes under ``roots``; returns the
    number of nodes rewritten.  ``live_nodes`` is not read: what a run
    keeps for live frames it hands over among the roots."""
    opts = session.options
    if not opts.get("optimizer.shuffle"):
        return 0
    if session.engine.is_lazy:
        return 0
    limit = opts.get("optimizer.shuffle_threshold_bytes")
    if limit is None and session.memory is not None:
        limit = session.memory.headroom()
    if limit is None or int(limit) <= 0:
        return 0
    limit = int(limit)
    nodes = collect_subgraph(list(roots))
    counts = consumer_counts(nodes)
    # scans referenced outside the pure data flow (order deps, the roots
    # themselves) must stay materializable
    pinned = {dep.id for node in nodes for dep in node.order_deps}
    pinned.update(root.id for root in roots)
    lowered = 0
    for node in list(nodes):
        if node.op == "merge":
            lowered += _lower_merge(node, counts, pinned, opts, limit)
        elif node.op in ("groupby_agg", "groupby_agg_multi"):
            lowered += _lower_groupby(node, counts, pinned, opts, limit)
    return lowered


def _streamable_scan(node: Node, counts: Dict[int, int],
                     pinned: set) -> Optional[int]:
    """Byte estimate of ``node`` when it is a scan that may legally
    stream (sole consumer, not pinned, stats stamped), else None."""
    if node.op != "scan" or node.persist:
        return None
    if node.id in pinned or counts.get(node.id, 0) != 1:
        return None
    if node.args.get("stream"):
        return None  # already claimed by another lowering this pass
    est = node.args.get("est_bytes")
    if est is None or node.args.get("partitions_total") is None:
        return None
    return int(est)


def _partition_count(opts, total_bytes: int, limit: int) -> int:
    explicit = opts.get("optimizer.shuffle_partitions")
    if explicit:
        return int(explicit)
    per_bucket = max(1, limit // 4)
    return max(2, min(_MAX_BUCKETS, -(-total_bytes // per_bucket)))


# -- merge -------------------------------------------------------------


def _lower_merge(node: Node, counts, pinned, opts, limit: int) -> int:
    from repro.analysis.plan.schema import merge_key_columns

    if len(node.inputs) != 2 or node.inputs[0] is node.inputs[1]:
        return 0
    how = node.args.get("how", "inner")
    if how not in ("inner", "left", "right", "outer"):
        return 0
    left_keys, right_keys = merge_key_columns(node)
    if left_keys is None or right_keys is None:
        return 0  # natural join: key set unknown until schemas meet
    if set(POSITION_COLUMNS) & (set(left_keys) | set(right_keys)):
        return 0
    left, right = node.inputs
    left_est = _streamable_scan(left, counts, pinned)
    right_est = _streamable_scan(right, counts, pinned)
    if left_est is None or right_est is None:
        return 0
    if left_est + right_est <= limit:
        return 0  # fits in memory anyway
    small = max(1, limit // 4)
    if right_est <= small and can_broadcast(how):
        # broadcast fast path: stream the big left side only; the
        # merge node itself is untouched and detects the stream input
        left.args["stream"] = True
        return 1
    n_buckets = _partition_count(opts, left_est + right_est, limit)
    left_pos, right_pos = POSITION_COLUMNS
    left.args["stream"] = True
    right.args["stream"] = True
    write_left = Node(
        "shuffle_write", [left],
        {"keys": list(left_keys), "n_buckets": n_buckets,
         "pos_name": left_pos, "est_total": left_est},
        label="shuffle left",
    )
    write_right = Node(
        "shuffle_write", [right],
        {"keys": list(right_keys), "n_buckets": n_buckets,
         "pos_name": right_pos, "est_total": right_est},
        label="shuffle right",
    )
    merge_args = dict(node.args)
    pieces = []
    for i in range(n_buckets):
        read_left = Node(
            "shuffle_read", [write_left],
            {"bucket": i, "n_buckets": n_buckets, "est_total": left_est},
            label=f"left bucket {i}",
        )
        read_right = Node(
            "shuffle_read", [write_right],
            {"bucket": i, "n_buckets": n_buckets, "est_total": right_est},
            label=f"right bucket {i}",
        )
        piece = Node(
            "merge", [read_left, read_right], dict(merge_args),
            label=f"merge bucket {i}",
        )
        # re-own the result's payload so the (much larger) bucket
        # frames can release as soon as the bucket-local merge is done
        pieces.append(Node(
            "compact", [piece], {}, label=f"compact bucket {i}",
        ))
    node.op = "combine_agg"
    node.inputs = pieces
    node.args = {"kind": "merge", "pos_names": list(POSITION_COLUMNS)}
    return 1


# -- groupby -----------------------------------------------------------


def _lower_groupby(node: Node, counts, pinned, opts, limit: int) -> int:
    if len(node.inputs) != 1:
        return 0
    scan = node.inputs[0]
    est = _streamable_scan(scan, counts, pinned)
    if est is None or est <= limit:
        return 0
    keys_arg = node.args.get("keys")
    keys = [keys_arg] if isinstance(keys_arg, str) else list(keys_arg or ())
    if not keys:
        return 0
    triples = _output_triples(node)
    if triples is None:
        return 0
    labels = {label for _c, _f, label in triples}
    sources = {col for col, _f, _l in triples}
    if (labels | sources) & set(keys):
        return 0  # aggregating a key column: label collisions
    plan = decompose(triples)
    if plan is not None:
        _rewrite_partial(node, scan, keys, *plan, est)
    else:
        _rewrite_bucketed(node, scan, keys, triples, est, opts, limit)
    return 1


def _output_triples(node: Node) -> Optional[List[Tuple[str, str, str]]]:
    """(source column, func, output label) per output, in output order;
    None when the spec is not lowerable."""
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
    return triples


def _combine_args(node: Node, keys: List[str], outputs: List[dict]) -> dict:
    if node.op == "groupby_agg":
        return {"kind": "agg", "keys": keys, "outputs": outputs,
                "output": "series", "name": node.args.get("column")}
    return {"kind": "agg", "keys": keys, "outputs": outputs,
            "output": "frame",
            "as_index": bool(node.args.get("as_index", True))}


def _rewrite_partial(node: Node, scan: Node, keys: List[str],
                     pairs, outputs: List[dict], est: int) -> None:
    """Decomposable path: per-partition partials, one re-aggregation."""
    combine = _combine_args(node, keys, outputs)
    n_parts = _scan_parts(scan)
    scan.args["stream"] = True
    partial = Node(
        "partial_agg", [scan],
        {"keys": keys, "pairs": pairs, "est_total": est, "n_parts": n_parts},
        label="partial agg",
    )
    node.op = "combine_agg"
    node.inputs = [partial]
    node.args = combine


def _rewrite_bucketed(node: Node, scan: Node, keys: List[str],
                      triples, est: int, opts, limit: int) -> None:
    """Holistic path: hash-shuffle so each key is whole in one bucket,
    aggregate exactly per bucket, stack (groups never straddle)."""
    combine = _combine_args(node, keys, [
        {"label": label, "mode": "direct", "partial": label, "func": "first"}
        for _column, _func, label in triples
    ])
    n_buckets = _partition_count(opts, est, limit)
    scan.args["stream"] = True
    write = Node(
        "shuffle_write", [scan],
        {"keys": keys, "n_buckets": n_buckets, "est_total": est},
        label="shuffle groupby",
    )
    pieces = []
    bucket_est = max(1, est // n_buckets)
    for i in range(n_buckets):
        read = Node(
            "shuffle_read", [write],
            {"bucket": i, "n_buckets": n_buckets, "est_total": est},
            label=f"bucket {i}",
        )
        pieces.append(Node(
            "partial_agg", [read],
            {"keys": keys, "pairs": list(triples),
             "est_total": bucket_est, "n_parts": 1},
            label=f"agg bucket {i}",
        ))
    node.op = "combine_agg"
    node.inputs = pieces
    node.args = combine


def _scan_parts(scan: Node) -> int:
    partitions = scan.args.get("partitions")
    if partitions is not None:
        return max(1, len(partitions))
    return max(1, int(scan.args.get("partitions_total") or 1))
