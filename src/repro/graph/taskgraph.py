"""Graph algorithms over LaFP nodes.

The graph is *implicit*: nodes hold references to their dependencies, and
any set of requested roots defines a subgraph by reachability.  These
helpers provide subgraph collection, topological ordering, consumer
counting and DOT export (Figures 6 and 9 render with ``to_dot``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.graph.node import Node


def collect_subgraph(roots: Sequence[Node]) -> List[Node]:
    """All nodes reachable from ``roots`` through data and order deps."""
    seen: Set[int] = set()
    out: List[Node] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        out.append(node)
        stack.extend(node.all_deps())
    return out


def topological_order(roots: Sequence[Node]) -> List[Node]:
    """Dependencies-first ordering of the subgraph under ``roots``.

    Iterative post-order DFS (the benchmark graphs can be deep chains, so
    no recursion).
    """
    order: List[Node] = []
    # DFS colouring: absent=unvisited, False=in progress, True=done.
    done: Dict[int, bool] = {}
    stack: List[tuple] = [(node, False) for node in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            done[node.id] = True
            order.append(node)
            continue
        if node.id in done:
            continue  # finished, or a stale duplicate stack entry
        done[node.id] = False
        stack.append((node, True))
        for dep in node.all_deps():
            if done.get(dep.id) is False:
                raise ValueError(f"cycle detected at node {dep!r}")
            if dep.id not in done:
                stack.append((dep, False))
    return order


def needed_nodes(roots: Sequence[Node]) -> Set[int]:
    """Node ids a computation of ``roots`` must execute or read.

    Culling: traversal stops at nodes with cached (persisted) results --
    their inputs need not recompute (section 3.5 reuse).
    """
    needed: Set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in needed:
            continue
        needed.add(node.id)
        if not node.computed:
            stack.extend(node.all_deps())
    return needed


def initial_refcounts(order: Sequence[Node]) -> Dict[int, int]:
    """Data-edge consumer counts used for eager release (section 2.6).

    A node's count is how many in-graph consumers will read its result;
    when it reaches zero the result can be cleared.  Inputs of cached
    (persisted) nodes are not counted -- they are never re-read.
    """
    counts: Dict[int, int] = {node.id: 0 for node in order}
    in_graph = set(counts)
    for node in order:
        if node.computed:
            continue
        for inp in node.inputs:
            if inp.id in in_graph:
                counts[inp.id] += 1
    return counts


def dependency_counts(
    order: Sequence[Node],
    consumers: Optional[Dict[int, List[Node]]] = None,
) -> Dict[int, int]:
    """Scheduling in-degrees: distinct unfinished in-graph dependencies.

    Counts *all* edges (data and ordering) since both gate when a node
    may run; cached nodes contribute an in-degree of zero (they complete
    instantly).  A node whose count is zero is *ready*.  The edges are
    those of :func:`consumers_by_id`, read the other way; a caller that
    already holds that map passes it as ``consumers``.
    """
    if consumers is None:
        consumers = consumers_by_id(order)
    counts: Dict[int, int] = {node.id: 0 for node in order}
    for waiting in consumers.values():
        for node in waiting:
            counts[node.id] += 1
    return counts


def ready_nodes(order: Sequence[Node],
                dep_counts: Dict[int, int]) -> List[Node]:
    """The initial ready set, in deterministic (topological) order."""
    return [node for node in order if dep_counts[node.id] == 0]


def consumers_by_id(order: Sequence[Node]) -> Dict[int, List[Node]]:
    """Map node id -> distinct in-graph consumers over data *and*
    ordering edges (the reverse adjacency the ready-queue scheduler
    walks when a task finishes)."""
    in_graph = {node.id for node in order}
    out: Dict[int, List[Node]] = {}
    for node in order:
        if node.computed:
            continue
        seen: Set[int] = set()
        for dep in node.all_deps():
            if dep.id in in_graph and dep.id not in seen:
                seen.add(dep.id)
                out.setdefault(dep.id, []).append(node)
    return out


def consumer_counts(nodes: Iterable[Node]) -> Dict[int, int]:
    """Number of consumers (data edges only) of each node within the set."""
    counts: Dict[int, int] = {}
    node_ids = {n.id for n in nodes}
    for node in nodes:
        for dep in node.inputs:
            if dep.id in node_ids:
                counts[dep.id] = counts.get(dep.id, 0) + 1
    return counts


def consumers_of(nodes: Iterable[Node]) -> Dict[int, List[Node]]:
    """Map node id -> consumer nodes (data edges) within the set."""
    out: Dict[int, List[Node]] = {}
    for node in nodes:
        for dep in node.inputs:
            out.setdefault(dep.id, []).append(node)
    return out


def node_counter(roots: Sequence[Node], predicate: Callable[[Node], bool]) -> int:
    """Count subgraph nodes satisfying ``predicate`` (testing helper)."""
    return sum(1 for node in collect_subgraph(roots) if predicate(node))


def to_dot(roots: Sequence[Node]) -> str:
    """Graphviz DOT rendering of the subgraph (edges follow the paper's
    task-graph convention: consumer -> producer)."""
    nodes = collect_subgraph(roots)
    lines = ["digraph lafp {", "  rankdir=BT;"]
    for node in nodes:
        label = node.label or node.op
        shape = "box" if node.spec.side_effect else "ellipse"
        lines.append(f'  n{node.id} [label="{label}" shape={shape}];')
    for node in nodes:
        for dep in node.inputs:
            lines.append(f"  n{dep.id} -> n{node.id};")
        for dep in node.order_deps:
            lines.append(f"  n{dep.id} -> n{node.id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
