"""Memory-aware static ordering of a task subgraph (ROADMAP item 2).

A whole-plan ordering pass, in the spirit of dask's ``dask/order.py``,
that picks *which branch to finish first* so the fewest intermediate
results are alive at once.  Its output is a priority per node, and the
priority is the key of the one ready heap
(:class:`~repro.graph.scheduler.base.ReadySet`): the inline strategies
pop it one task at a time, which *is* the memory-minimizing serial
order, and the pool strategies admit in that same order as slots
free.

The assignment is a generalized Sethi--Ullman numbering over byte
estimates (:mod:`repro.graph.scheduler.estimates`):

1. Bottom-up, every node gets a *subtree peak*: evaluating child ``c``
   costs ``peak(c)`` transient bytes and leaves ``est(c)`` resident, so
   evaluating children in decreasing ``peak(c) - est(c)`` order (ties
   in program order, :attr:`~repro.graph.node.Node.rank`) provably
   minimizes the running maximum for a tree (shared DAG nodes
   make it a heuristic, which is all an advisory pass can be).
2. A depth-first post-order walk from the roots, visiting children in
   that per-node order, assigns each node its visit index as its
   **priority** (lower runs earlier).  First visit wins on shared
   nodes, so the priority map is a total order consistent with some
   topological order.

Nodes without a byte estimate count zero, which degrades the pass to a
plain depth-first post-order -- still better than interleaving branches
by node id, because depth-first finishes one branch (and releases it)
before touching the next.  The pass never changes *what* runs: only the
relative order of independent nodes: the ready set still gates every
node on all of its dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.graph.node import Node
from repro.graph.scheduler.base import ReadySet, release_inputs
from repro.graph.taskgraph import initial_refcounts


def static_priorities(
    order: Sequence[Node], estimates: Dict[int, int]
) -> Dict[int, int]:
    """Node id -> execution priority (lower = earlier), covering every
    node in ``order``.  ``order`` must be topological (deps first)."""
    in_graph = {node.id for node in order}

    def est(node_id: int) -> int:
        return estimates.get(node_id, 0)

    # Bottom-up subtree peaks + the greedy per-node child order.
    peak: Dict[int, int] = {}
    child_order: Dict[int, List[Node]] = {}
    for node in order:
        deps: List[Node] = []
        seen: Set[int] = set()
        for dep in node.all_deps():
            if dep.id in in_graph and dep.id not in seen:
                seen.add(dep.id)
                deps.append(dep)
        ranked = sorted(
            deps,
            key=lambda d: (-(peak.get(d.id, 0) - est(d.id)), d.rank),
        )
        child_order[node.id] = ranked
        held = 0
        highest = 0
        for dep in ranked:
            highest = max(highest, held + peak.get(dep.id, 0))
            held += est(dep.id)
        peak[node.id] = max(highest, held + est(node.id))

    # Depth-first post-order from the roots (nodes nothing consumes),
    # children in greedy order; the visit index is the priority.
    consumed: Set[int] = set()
    for node in order:
        for dep in child_order[node.id]:
            consumed.add(dep.id)
    roots = [node for node in order if node.id not in consumed]

    priorities: Dict[int, int] = {}
    counter = 0
    for root in roots:
        # Iterative two-phase DFS (plans can be thousands-deep chains).
        stack: List[tuple] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.id in priorities:
                continue
            if expanded:
                priorities[node.id] = counter
                counter += 1
                continue
            stack.append((node, True))
            # Reversed so ranked[0] is expanded (and numbered) first.
            for dep in reversed(child_order[node.id]):
                if dep.id not in priorities:
                    stack.append((dep, False))
    return priorities


def priority_topological_order(
    order: Sequence[Node], priorities: Dict[int, int],
    consumers: Optional[Dict[int, List[Node]]] = None,
) -> List[Node]:
    """Re-sort ``order`` topologically with ``priorities`` breaking
    every tie -- the memory-minimizing serial execution order.

    Drains a :class:`~repro.graph.scheduler.base.ReadySet` one node at
    a time, so it is by construction the order the serial strategy
    runs, over exactly the dependencies (data and ordering edges) every
    strategy respects; nodes without a priority tie-break on node id.
    ``consumers`` is ``consumers_by_id(order)`` when the caller has it.
    """
    ready = ReadySet([[node] for node in order], priorities,
                     consumers=consumers)
    result: List[Node] = []
    while ready.remaining:
        task, _ = ready.pop()
        result.append(task[0])
        ready.complete(task)
    return result


def simulate_peak_bytes(
    exec_order: Sequence[Node],
    estimates: Dict[int, int],
    root_ids: Set[int],
) -> int:
    """Predicted peak live bytes of running ``exec_order`` serially.

    Replays the section-2.6 eager-release rule over the byte estimates:
    a node's output goes live when it runs and dies when its last
    consumer has run (roots and persisted nodes stay live).  This is
    the number ``explain(stats=True)`` reports as the estimated peak,
    and what the static ordering pass is trying to minimize; nodes
    without an estimate contribute zero.
    """
    refcounts = initial_refcounts(exec_order)
    held: Dict[int, int] = {}
    live = 0
    peak = 0

    def drop(inp: Node) -> None:
        nonlocal live
        live -= held.pop(inp.id, 0)

    for node in exec_order:
        if node.computed:
            continue
        size = estimates.get(node.id, 0)
        held[node.id] = size
        live += size
        peak = max(peak, live)
        release_inputs(node, refcounts, root_ids, drop)
    return peak
