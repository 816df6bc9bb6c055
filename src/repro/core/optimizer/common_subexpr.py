"""Common-subexpression elimination and live_df persistence (section 3.5).

Two related mechanisms:

- :func:`eliminate_common_subexpressions` merges structurally identical
  nodes *within* one execution, so e.g. two filters built from equal
  predicates share a node (also the enabler for the paper's multi-parent
  pushdown rule).

- :func:`mark_persistent_nodes` handles reuse *across* compute
  boundaries: when ``compute(live_df=[...])`` fires, any node shared
  between the computed subgraph and a live dataframe's expression is
  marked ``persist`` so its result survives execution and later
  computations reuse it instead of recomputing (the 13x-vs-1.4x `stu`
  ablation of section 5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.graph.node import Node
from repro.graph.taskgraph import ConsumerIndex, collect_subgraph, topological_order


def _signature(node: Node):
    """Structural identity key, or None when the node must not merge.

    Side-effect nodes never merge (two prints are two prints); nodes whose
    args contain callables (UDFs) are not comparable.
    """
    if node.spec.side_effect:
        return None
    if node.op == "from_cached":
        # the plan fingerprint names the value; the blob is megabytes
        return (node.op, node.args["key"])
    parts = []
    for key in sorted(node.args):
        value = node.args[key]
        if callable(value):
            return None
        try:
            parts.append((key, repr(value)))
        except Exception:  # pragma: no cover - exotic arg types
            return None
    return (node.op, tuple(parts), tuple(inp.id for inp in node.inputs))


def eliminate_common_subexpressions(
    roots: Sequence[Node], index: Optional[ConsumerIndex] = None
) -> int:
    """Merge structurally identical nodes; returns the number merged.

    Processes in topological order so children merge before parents,
    letting whole identical chains collapse.
    """
    index = index or ConsumerIndex(roots)
    canonical: Dict[object, Node] = {}
    replaced = 0
    for node in topological_order(roots):
        # Keyed now, after its children were (possibly) replaced.
        signature = _signature(node)
        if signature is None:
            continue
        winner = canonical.setdefault(signature, node)
        if winner is not node:
            # Point every consumer of `node` at the canonical twin.
            for consumer in list(index.of(node)):
                index.replace(consumer, node, winner)
            replaced += 1
    return replaced


#: frame-producing ops worth pinning when consumed more than once on a
#: lazy backend (a shared series is cheap to recompute; a shared frame
#: pipeline is not).
_SHARABLE_OPS = {
    "scan", "filter", "setitem", "merge", "dropna", "fillna",
    "astype", "rename", "drop", "getitem_columns", "concat", "identity",
}


def persist_shared_nodes(roots: Sequence[Node]) -> List[Node]:
    """Pin frame nodes with multiple consumers (lazy backends only).

    Eager backends share results for free: the executor holds each
    node's materialized value until its last consumer ran.  On a lazy
    backend a node's "result" is an unevaluated expression, so two
    consumers would *recompute* the shared pipeline partition by
    partition -- the behaviour real Dask exhibits when ``compute()`` is
    called per output instead of once.  Persisting the shared node makes
    LaFP behave like ``dask.compute(*outputs)``: shared work runs once
    (at the price of materialized partitions, which Figure 15 shows as
    LaFP-Dask's memory cost).
    """
    from repro.graph.taskgraph import consumer_counts

    nodes = collect_subgraph(roots)
    counts = consumer_counts(nodes)
    marked = []
    for node in nodes:
        if node.persist or node.op not in _SHARABLE_OPS:
            continue
        if counts.get(node.id, 0) >= 2:
            node.persist = True
            marked.append(node)
    return marked


def mark_persistent_nodes(
    roots: Sequence[Node],
    live_nodes: Sequence[Node],
    session,
) -> List[Node]:
    """Mark common nodes of (roots x live_df) for persistence.

    Returns the nodes newly marked.  Sources (reads) are not persisted:
    re-reading is what the backends are good at, and persisting a full
    read would defeat column pruning.
    """
    if not live_nodes:
        return []
    computed = {n.id: n for n in collect_subgraph(roots)}
    marked: List[Node] = []
    for live in live_nodes:
        for node in collect_subgraph([live]):
            if node.id not in computed:
                continue
            if node.spec.side_effect or node.spec.is_source:
                continue
            if not node.persist:
                node.persist = True
                marked.append(node)
    session.persisted.extend(marked)
    return marked
