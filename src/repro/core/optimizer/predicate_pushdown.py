"""Predicate pushdown on the task DAG (section 3.2).

A filter node ``f`` with frame input ``u`` swaps below ``u`` when the
paper's three safe-point conditions hold:

1. ``mod_attrs(u) ∩ used_attrs(f) = ∅``,
2. ``u`` is row-preserving: filtering its input does not change the
   computed values of surviving output rows (encoded per-operator in
   :class:`repro.graph.node.OpSpec`),
3. ``f`` is the only (data) consumer of ``u``.

Two multi-parent extensions are also implemented:

- all parents of ``u`` are filters with *structurally equal* predicates:
  one filter pushes below ``u``, and ``u`` stands for the parents;
- all parents of ``u`` are filters with different predicates: their
  disjunction (the rows at least one parent keeps) pushes below ``u``
  while the parents stay.

The pass is one worklist over the ``ConsumerIndex`` that ``optimize()``
builds once: filters are taken lowest first and each sinks as far as the
conditions allow before the next is looked at.  It terminates by
construction -- a swap moves one predicate one op down and nothing moves
one up, so there are at most (filters x chain depth) swaps -- and it is
idempotent, because the one rewrite that could undo itself is never
made: a filter (itself row-preserving) hops a run of other filters only
in a move that also passes the op the run sits on.  A filter that moves
on is replaced by a fresh copy of the op it passed, over the sunk
filter, which computes its value (``ConsumerIndex.substitute``); the
parents a pushed disjunction serves are rebuilt :data:`SERVED` over that
copy, so no second one is pushed.  No node is changed in place.

:func:`fold_predicates_into_scans` takes the final step for ``scan``
sources, every one of which filters rows while reading: a filter
sitting directly on a scan -- typically the end state of the swaps
above -- is converted to the serializable conjunct form
(:mod:`repro.io.predicate`) and replaced by a fresh scan that carries
it in its args, so the source filters rows while reading and the
partition-pruning pass has something to prove against.  The conversion
is all-or-nothing; inexpressible masks leave the filter in the graph.

Pushing rebases the predicate expression: the mask was built against
``u``'s output, so its column reads are re-rooted onto ``u``'s input
(condition 1 guarantees those columns are unchanged by ``u``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.optimizer.projection import NARROWED
from repro.graph.explain import REWRITE_NOTE
from repro.graph.node import _ELEMENTWISE_SERIES_OPS, ALL_COLUMNS, Node
from repro.graph.taskgraph import ConsumerIndex, topological_order

#: labels of a pushed disjunction and of the parents it serves: either
#: tells a later pass that those parents were served.
_DISJUNCTION = "pushed_disjunction"
SERVED = REWRITE_NOTE + "served by a pushed disjunction"


def push_down_predicates(
    roots: List[Node], index: Optional[ConsumerIndex] = None
) -> int:
    """Move filters toward sources; returns the number of swaps made."""
    index = index or ConsumerIndex(roots)
    # popped lowest first, and a pushed filter goes back on top: it sinks
    # as far as it can before any filter above it is looked at
    work = [n for n in reversed(topological_order(roots)) if n.spec.is_filter]
    swaps = 0
    while work:
        f = work.pop()
        if f not in index:
            continue  # moved on, merged into a sibling, or cut loose
        u = f.inputs[0]
        pushed = _push_below(u, [f], index)
        if pushed is None:
            parents = [c for c in index.of(u)
                       if c.spec.is_filter and c.inputs[0] is u]
            if len(parents) > 1:
                pushed = _push_below(u, parents, index)
        if pushed is not None:
            work.append(pushed)
            swaps += 1
    return swaps


def fold_predicates_into_scans(
    roots: List[Node], index: Optional[ConsumerIndex] = None
) -> int:
    """Fold filters over ``scan`` sources into the scan's args; returns
    the number of filters absorbed."""
    index = index or ConsumerIndex(roots)
    # lowest first: once a filter folded, the next one up reads the scan
    return sum(
        _fold(f, index) for f in topological_order(roots)
        if f.spec.is_filter and len(f.inputs) > 1 and f in index
    )


def _fold(f: Node, index: ConsumerIndex) -> bool:
    from repro.io.predicate import conjuncts_from_mask, merge_conjuncts

    u = f.inputs[0]
    if u.op != "scan":
        return False
    conjuncts = conjuncts_from_mask(f.inputs[1], u)
    if conjuncts is None or not _passable(u, [f], index):
        return False
    index.substitute(f, u.rebuilt(predicate=merge_conjuncts(
        u.args.get("predicate"), conjuncts)), exact=False)
    return True


def _push_below(u: Node, parents: List[Node],
                index: ConsumerIndex) -> Optional[Node]:
    """The one rewrite: the predicate of ``parents`` -- filters on ``u``,
    one in the plain case -- moves below ``u``.  Returns the new filter,
    or ``None`` when a safe-point condition fails."""
    if not _opens(u, parents, index):
        return None
    base = u.inputs[0]
    masks = [p.inputs[1] for p in parents]
    same = all(structurally_equal(mask, masks[0]) for mask in masks[1:])
    if same:
        masks = masks[:1]
    elif base.label == _DISJUNCTION or SERVED in {p.label for p in parents}:
        return None
    # One predicate (the paper's same-filter rule when there are several
    # parents) moves below u, and u stands for the parents.  Of different
    # predicates only the rows no parent keeps may go, and each parent
    # still filters for itself above u, rebuilt as served.
    either = _rebase(masks[0], old=u, new=base)
    for mask in masks[1:]:
        either = Node("binop", args={"op": "|"}, label="or", inputs=[
            either, _rebase(mask, old=u, new=base)])
    new_filter = Node("filter", inputs=[base, either],
                      label=parents[0].label if same else _DISJUNCTION)
    # u again, over the filtered rows: its side inputs (a setitem's
    # value, a hopped filter's mask) follow
    filtered = u.rebuilt([new_filter] + [
        _rebase(side, old=base, new=new_filter) for side in u.inputs[1:]])
    for p in parents:
        index.substitute(p, filtered if same else Node(
            "filter", [filtered, _rebase(p.inputs[1], old=u, new=filtered)],
            p.args, label=SERVED), exact=False)
    return new_filter


def _opens(u: Node, parents: List[Node], index: ConsumerIndex) -> bool:
    """The safe-point conditions -- and when ``u`` is a filter, not for
    ``u`` alone but for the whole run down to and including the op it
    sits on: hopping filters alone gains nothing (two adjacent filters
    would trade places for ever), so a predicate enters a run only when
    it will also pass what the run sits on."""
    if u.label is not None and u.label.startswith(NARROWED):
        # put there by projection pushdown after the filter sank as far
        # as it could, and it copies nothing: passing it gains nothing
        return False
    op = u
    while op.op == "filter":
        op = op.inputs[0]
    # Conditions 1 and 2, on the op under the run (its members modify
    # nothing) -- the cheap ones first.
    spec = op.spec
    if (spec.is_source or spec.side_effect or not spec.row_preserving
            or not op.inputs):
        return False
    mods = op.mod_attrs()
    used: Set[str] = set().union(*(p.used_attrs() for p in parents))
    if mods and (ALL_COLUMNS in used or mods & used
                 or (used and ALL_COLUMNS in mods)):
        return False
    while _passable(u, parents, index):
        if u is op:
            return True
        parents, u = [u], u.inputs[0]
    return False


def _passable(u: Node, parents: List[Node], index: ConsumerIndex) -> bool:
    """Condition 3: ``parents`` are ``u``'s only data consumers, and
    ``u`` is no root (its unfiltered output is requested).  The column
    reads that feed the parents' own masks move with the filter, so they
    are allowed -- if they are the filters' alone: another reader (a
    column read CSE shares with an unfiltered aggregate) would keep the
    unfiltered ``u``, computed a second time, and the paper's condition
    is one computation of ``u``, one read per scan.  And ``u``'s side
    inputs (a setitem's value, a hopped filter's mask) are recomputed on
    the *filtered* frame after the swap: only sound for a pure
    elementwise derivation of it."""
    hops = [u]
    for p in parents:
        for side in p.inputs[1:]:
            hops.extend(_above(side, u))
    allowed = {n.id for n in hops}.union(p.id for p in parents)
    return not any(
        hop.id in index.root_ids
        or any(reader.id not in allowed for reader in index.of(hop))
        for hop in hops
    ) and all(_elementwise_over(side, u.inputs[0]) for side in u.inputs[1:])


def _elementwise_over(node: Node, base: Node) -> bool:
    """True when ``node``'s subgraph down to ``base`` is elementwise.

    Walks the expression; every path must end at ``base``, reached only
    through row-preserving series operators, so re-rooting it onto a
    filtered frame yields the filtered rows of the same values.  A path
    that ends anywhere else -- a ``held`` or ``from_cached`` series, a
    second source -- carries rows the re-rooting cannot filter: its
    full-length value would meet the filtered frame.
    """
    stack = [node]
    seen = set()
    while stack:
        current = stack.pop()
        if current is base or current.id in seen:
            continue
        seen.add(current.id)
        if (current.op == "getitem_column"  # reads whatever frame it is on
                or current.op in _ELEMENTWISE_SERIES_OPS):
            stack.extend(current.inputs)
        else:
            return False
    return True


def _above(expr: Node, floor: Node) -> List[Node]:
    """``expr``'s subgraph cut off at ``floor``, dependencies first: what
    a predicate over ``floor``'s output is made of.  The walk is bounded
    by the expression, not by the plan under ``floor``."""
    out: List[Node] = []
    seen = {floor.id}
    stack: List[Tuple[Node, bool]] = [(expr, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
        elif node.id not in seen:
            seen.add(node.id)
            stack.append((node, True))
            stack.extend((inp, False) for inp in node.inputs)
    return out


def _rebase(expr: Node, old: Node, new: Node) -> Node:
    """Clone ``expr`` with its reads of ``old`` re-rooted on ``new``;
    branches that never reach ``old`` are shared, not copied."""
    moved: Dict[int, Node] = {old.id: new}
    for node in _above(expr, old):
        inputs = [moved.get(inp.id, inp) for inp in node.inputs]
        if any(a is not b for a, b in zip(inputs, node.inputs)):
            moved[node.id] = node.rebuilt(inputs)
    return moved.get(expr.id, expr)


def structurally_equal(a: Node, b: Node) -> bool:
    """Recursive structural comparison of two expression subgraphs."""
    if a is b:
        return True
    if a.op != b.op or len(a.inputs) != len(b.inputs):
        return False
    try:
        if {k: repr(v) for k, v in a.args.items()} != {
            k: repr(v) for k, v in b.args.items()
        }:
            return False
    except Exception:  # pragma: no cover - unreprable args
        return False
    return all(
        structurally_equal(x, y) for x, y in zip(a.inputs, b.inputs)
    )
