"""Common-subexpression elimination and live_df persistence (section 3.5).

Two related mechanisms:

- :func:`eliminate_common_subexpressions` merges structurally identical
  nodes *within* one execution, so e.g. two filters built from equal
  predicates share a node (also the enabler for the paper's multi-parent
  pushdown rule).

- :func:`pin_frontier` handles reuse *across* compute boundaries: when
  ``compute(live_df=[...])`` fires, it names the nodes of the run's
  plan whose values a live dataframe's expression will read, so they
  survive execution and later computations reuse them instead of
  recomputing (the 13x-vs-1.4x `stu` ablation of section 5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.node import Node
from repro.graph.taskgraph import ConsumerIndex, topological_order


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
    roots: List[Node], index: Optional[ConsumerIndex] = None
) -> int:
    """Merge structurally identical nodes; returns the number merged.

    Processes in topological order so children merge before parents,
    letting whole identical chains collapse -- equal roots included,
    which then share one slot and are computed once.
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
            index.substitute(node, winner)
            replaced += 1
    return replaced


def pin_frontier(
    plan: Dict[int, Node], live_nodes: Sequence[Node]
) -> List[Tuple[Node, Node]]:
    """What a run pins for the raw ``live_nodes``, as (raw node, its
    twin in ``plan``) pairs: a live frame itself when the plan computes
    it, else the plan's nodes that the rest of the frame's graph reads.

    Only that frontier is pinned -- a later computation of the live
    frame stops at it, so nothing beneath is read again.  The twins go
    to ``optimize()`` as ``live_nodes`` and count as roots there, which
    keeps each one's value the raw plan's (no filter sinks below it, no
    projection narrows it) and so fit to stand for the raw node.
    Sources are not pinned: re-reading is what the backends are good
    at, and pinning a full read would defeat column pruning; a value
    already held (a source too) needs no pin.
    """
    pins: List[Tuple[Node, Node]] = []
    seen: Set[int] = set()
    stack = list(live_nodes)
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        twin = plan.get(node.id)
        if twin is None:
            stack.extend(node.inputs)
        elif not (twin.spec.is_source or twin.spec.side_effect):
            pins.append((node, twin))
    return pins
