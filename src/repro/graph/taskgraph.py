"""Graph algorithms over LaFP nodes.

The graph is *implicit*: nodes hold references to their dependencies, and
any set of requested roots defines a subgraph by reachability.  These
helpers provide subgraph collection, topological ordering, consumer
counting and DOT export (Figures 6 and 9 render with ``to_dot``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


def physical_plan(roots: Sequence[Node]) -> Dict[int, Node]:
    """A private copy of the subgraph under ``roots``, as node id ->
    twin (:meth:`Node.twin`), for one run to rewrite and execute.

    The optimizer passes put fresh nodes in place of whatever plan they
    are handed, repointing readers; handing them twins is what keeps the
    user's graph exactly as it was built, with nothing to restore.  The
    copy stops at nodes that hold their value: each is a ``held`` leaf.
    """
    plan: Dict[int, Node] = {}
    interior: List[Tuple[Node, Node]] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in plan:
            continue
        plan[node.id] = twin = node.twin()
        if not node.computed:
            interior.append((node, twin))
            stack.extend(node.inputs)
            stack.extend(node.order_deps)
    for node, twin in interior:
        twin.inputs = [plan[dep.id] for dep in node.inputs]
        twin.order_deps = [plan[dep.id] for dep in node.order_deps]
    return plan


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


class ConsumerIndex:
    """Who reads each node of the subgraph under ``roots`` (the caller's
    list, its slots kept by :meth:`substitute`): built once per
    ``optimize()`` and kept current by every :meth:`substitute`.

    One entry per edge, data and ordering alike.  A node that loses its
    last reader, and that no root names, is dead: its edges leave the
    index with it, so :meth:`of` never reports a reader a fresh
    ``collect_subgraph`` would not reach.
    """

    def __init__(self, roots: List[Node]):
        self.roots = roots
        self.root_ids = {root.id for root in roots}
        #: the key of each node's value, by id: :meth:`substitute` keeps it
        self.keys: Dict[int, Any] = {}
        self._readers: Dict[int, List[Node]] = {}
        self._live: Set[int] = set()
        self._link(roots)

    def __contains__(self, node: Node) -> bool:
        return node.id in self._live

    def of(self, node: Node) -> Sequence[Node]:
        return self._readers.get(node.id, ())

    def substitute(self, old: Node, new: Node, exact: bool = True) -> None:
        """Put ``new`` -- it does not read ``old`` -- wherever ``old``
        stood: every reader's edges, every root slot.  ``old`` dies.
        When ``exact``, ``new`` computes ``old``'s value and takes over
        its key (dropping its own); otherwise the keys of ``old`` and of
        the nodes above it go, but a root's, which follows its slot (a
        root keeps its value whatever moves beneath it)."""
        if self.keys and not exact:
            self._forget_above(old)
        self._link([new])
        readers = self._readers.pop(old.id, [])
        for reader in dict.fromkeys(readers):
            reader.inputs = [new if d is old else d for d in reader.inputs]
            reader.order_deps = [new if d is old else d
                                 for d in reader.order_deps]
        self._readers.setdefault(new.id, []).extend(readers)
        if old.id in self.root_ids:
            self.roots[:] = [new if r is old else r for r in self.roots]
            self.root_ids = (self.root_ids - {old.id}) | {new.id}
        self.keys.pop(new.id, None)
        if old.id in self.keys:
            self.keys[new.id] = self.keys.pop(old.id)
        if old.id in self._live:
            self._live.discard(old.id)
            self._drop([(old, dep) for dep in old.all_deps()])

    def _forget_above(self, node: Node) -> None:
        """Drop the keys of ``node`` and of every reader above it but
        the roots'."""
        seen: Set[int] = set()
        stack = [node]
        while stack:
            top = stack.pop()
            if top.id not in seen:
                seen.add(top.id)
                stack.extend(self.of(top))
                if top.id not in self.root_ids:
                    self.keys.pop(top.id, None)

    def _drop(self, edges: List[Tuple[Node, Node]]) -> None:
        """Remove ``(reader, dep)`` edges; a dep left unread dies."""
        while edges:
            reader, dep = edges.pop()
            readers = self._readers[dep.id]
            readers.remove(reader)
            if not readers and dep.id not in self.root_ids:
                self._live.discard(dep.id)
                edges.extend((dep, below) for below in dep.all_deps())

    def _link(self, nodes: Iterable[Node]) -> None:
        """Record the edges of every node reached that is not live yet
        (the initial subgraph; later, what a rewrite just built)."""
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if node.id not in self._live:
                self._live.add(node.id)
                for dep in node.all_deps():
                    self._readers.setdefault(dep.id, []).append(node)
                    stack.append(dep)


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
