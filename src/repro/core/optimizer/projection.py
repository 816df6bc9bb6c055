"""Runtime projection pushdown: intermediates hold only the columns and
rows their readers use.

Static analysis (section 3.1) already injects ``usecols`` where the whole
program is analysable.  This runtime pass is the complement for graphs
built purely dynamically, and the refinement of a ``usecols`` to one
run.  One backward walk from the roots propagates a *required-column*
set to every node, with per-operator transfer functions, in two
flavours:

- the *informative* demand mirrors the paper's heuristic: printing a
  ``head()``, ``describe()`` or ``info()`` makes no column live, since
  that output "does not affect the intended program result";
- the *exact* demand makes every print need all the columns that reach
  it, so a narrowing made by it prints the same text.

The pass then makes four rewrites, each counted in the optimize
report's ``projection``:

1. a ``scan`` without ``columns`` whose registered format declares
   ``supports_projection`` reads its informative demand;
2. a ``scan`` whose ``columns`` came from a ``usecols`` (the user's or
   the JIT's) reads only the exact demand out of them -- a column that
   only a folded predicate reads is read for the mask alone
   (:func:`repro.io.predicate.required_read_columns`);
3. where the readers of a row-copying op (:data:`_ROW_COPYING`), or of a
   merge, need a strict subset of an input's known columns, a zero-copy
   ``getitem_columns`` goes on that input edge, so the copy carries only
   what is read on.  A filter needs only what its readers need: its mask
   is an input of its own;
4. a ``head(n)`` of a frame ``sort_values`` becomes ``nlargest`` /
   ``nsmallest``, which copies ``n`` rows instead of every row, when
   the sort has that one reader, is no root, pin or ordering
   dependency, and sorts every key the same way.

A ``merge`` maps its required output labels back to each side with the
one join label rule (:func:`repro.frame.merge.join_labels`) over the
input column lists the schema pass infers -- lazily, for the inputs the
rules ask about, memoized across the pass.  Each side keeps its key
columns, every column the two sides share (so no ``_x`` / ``_y`` suffix
appears or disappears when the other side narrows) and every column
whose output label is required.  A merge stays whole when it must yield
every column, when either side's columns are unknown, or when the key
rule rejects it.

Roots, pins (optimized as roots) and the result-cache insertion
candidates in ``whole`` (``optimizer.reuse``: a value is cached under
the raw plan's fingerprint, which a narrowed node no longer computes)
are never narrowed, and a merge among them stays whole.  The pass is a
fixpoint: run again over its own output it finds nothing to do, and
predicate pushdown never moves a filter below a projection put under it
(the filter had sunk as far as it could before).

Conservative by construction: any operator whose column flow is unknown
(UDF apply, prints of whole frames, describe, ...) marks its frame
inputs as requiring *all* columns.
"""

from __future__ import annotations

from typing import (
    Collection, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.frame.merge import join_keys, join_labels
from repro.graph.explain import REWRITE_NOTE
from repro.graph.node import ALL_COLUMNS, Node
from repro.graph.taskgraph import ConsumerIndex, topological_order

#: Operators through which the requirement set passes untouched.
_PASSTHROUGH = frozenset({
    "filter", "dropna", "head", "tail", "sample", "sort_index",
    "drop_duplicates", "sort_values", "fillna", "astype", "round",
    "identity", "abs", "nlargest", "nsmallest",
})
#: Operators that copy every column of the rows they keep.
_ROW_COPYING = frozenset({
    "filter", "dropna", "sort_values", "drop_duplicates", "sort_index",
    "sample", "fillna",
})
#: Series-level operators: their inputs are series, handled transitively.
_SERIES_OPS = frozenset({
    "binop", "unop", "str_method", "dt_field", "isin", "between", "isna",
    "notna", "series_fillna", "series_astype", "series_map", "to_datetime",
    "series_agg", "series_len", "nunique", "unique", "value_counts",
    "to_frame_series",
})
#: Label of a projection the pass puts on an input edge (+ the op's name).
NARROWED = REWRITE_NOTE + "narrowed for "
#: Label of a ``head`` the pass turned into a top-n.
TOP_N = REWRITE_NOTE + "top-n of sort_values + head"


def push_down_projections(roots: List[Node], session=None,
                          whole: Collection[int] = (),
                          index: Optional[ConsumerIndex] = None) -> int:
    """Make the rewrites of the module docstring; returns how many.

    ``session`` resolves source schemas; the nodes whose ids are in
    ``whole`` keep their values as the raw plan defines them.
    """
    index = index or ConsumerIndex(roots)
    order = topological_order(roots)
    schemas = _Schemas(session=session)
    demands = _demands(roots, order, schemas, whole)
    top_n = _top_n(order, demands, whole, index)
    narrowed = 0
    for node in order:
        columns = node.op == "scan" and _narrowed_columns(node, demands)
        if columns:
            index.substitute(node, node.rebuilt(columns=columns), exact=False)
            narrowed += 1
    if narrowed:  # what lies above a narrowed scan is inferred anew
        schemas = _Schemas(session=session)
    edges = _project_edges(order, demands, schemas, index)
    return top_n + narrowed + edges


def _scan_supports_projection(node: Node) -> bool:
    from repro.io.registry import source_capabilities

    spec = source_capabilities(node.args.get("format"))
    return spec is not None and spec.supports_projection


def _narrowed_columns(node: Node, demands: "_Demands") -> Optional[List[str]]:
    """Rewrites 1 and 2 on one scan: the columns it should read, or
    ``None`` when they stay as they are."""
    if not _scan_supports_projection(node):
        return None
    columns = node.args.get("columns")
    needs = (demands.informative.get(node.id) if columns is None
             else demands.exact(node))
    if not needs or ALL_COLUMNS in needs:
        return None  # (no demand at all is degenerate: left untouched)
    if columns is not None:
        needs = needs & set(columns)
        if not needs or len(needs) == len(set(columns)):
            return None
    return sorted(needs)


def _top_n(order: Sequence[Node], demands: "_Demands",
           whole: Collection[int], index: ConsumerIndex) -> int:
    """Rewrite 4; returns how many heads it replaced."""
    made = 0
    for node in order:
        sort = node.inputs[0] if node.op == "head" else None
        if (sort is None or sort.op != "sort_values" or node.id in whole
                or sort.args.get("by") is None or len(index.of(sort)) != 1
                or sort.id in demands.kept or sort.order_deps):
            continue
        ascending = sort.args.get("ascending", True)
        flags = {ascending} if isinstance(ascending, bool) else set(ascending)
        if len(flags) != 1:
            continue
        # the sort's demand was its one reader's, so nothing else moves
        index.substitute(node, Node(
            "nsmallest" if flags.pop() else "nlargest", list(sort.inputs),
            {"n": node.args.get("n", 5), "columns": sort.args["by"]},
            label=TOP_N), exact=False)
        made += 1
    return made


def _project_edges(order: Sequence[Node], demands: "_Demands",
                   schemas: "_Schemas", index: ConsumerIndex) -> int:
    """Rewrite 3; returns the number of projections put on edges (a
    ``wide`` node -- ``whole`` ones included -- keeps its inputs)."""
    made: Dict[Tuple[int, Tuple[str, ...]], Node] = {}
    count = 0
    for node in order:
        if node not in index or node.id in demands.wide:
            continue
        out_req = demands.informative.get(node.id, set())
        if node.op in _ROW_COPYING:
            sides: Sequence[Set[str]] = (
                out_req if node.op == "filter"
                else out_req | node.used_attrs(),)
        elif node.op == "merge":
            sides = _merge_demand(node, out_req, schemas.inputs) or ()
        else:
            continue
        inputs = list(node.inputs)
        for i, needs in enumerate(sides):
            if ALL_COLUMNS in needs:
                continue
            inp = node.inputs[i]
            known = schemas.columns(inp)
            if known is None:
                continue
            kept = tuple(name for name in known if name in needs)
            if not kept or len(kept) == len(known):
                continue
            key = (inp.id, kept)
            if key not in made:
                made[key] = Node("getitem_columns", [inp],
                                 {"columns": list(kept)},
                                 label=NARROWED + node.op)
                count += 1
            inputs[i] = made[key]
        if inputs != node.inputs:
            index.substitute(node, node.rebuilt(inputs), exact=False)
    return count


class _Demands(NamedTuple):
    informative: Dict[int, Set[str]]
    #: nodes that are read whole under the exact demand alone (a print
    #: reaches them, or they are ``kept``).  Elsewhere the two demands
    #: agree: they differ only where a print needs every column, and a
    #: whole read stays whole down every transfer that passes it on.
    wide: Set[int]
    #: nodes whose value is kept as it is: roots, the targets of
    #: ordering edges, and ``whole``
    kept: Set[int]

    def exact(self, node: Node) -> Set[str]:
        if node.id in self.wide:
            return {ALL_COLUMNS}
        return self.informative.get(node.id, set())


def _required_columns(
    roots: Sequence[Node],
    order: Optional[Sequence[Node]] = None,
    schemas: Optional[dict] = None,
    session=None,
    whole: Collection[int] = (),
) -> Dict[int, Set[str]]:
    """The informative demand per node id.

    ``order``, when given, must be ``topological_order(roots)`` and
    ``schemas`` the schema pass over it -- callers that already have
    them (the plan analyzer) skip the resort and the inference.
    Without ``schemas`` a merge infers its inputs' on first use.
    """
    if order is None:
        order = topological_order(roots)
    return _demands(roots, order, _Schemas(schemas, session),
                    whole).informative


def _demands(roots: Sequence[Node], order: Sequence[Node],
             schemas: "_Schemas", whole: Collection[int]) -> _Demands:
    """Both demands, in one reverse-topological walk."""
    informative: Dict[int, Set[str]] = {}
    wide: Set[int] = set()
    root_ids = {r.id for r in roots}
    kept = root_ids | set(whole)
    for node in reversed(order):
        kept.update(dep.id for dep in node.order_deps)
        if not node.spec.scalar:
            # A root frame is handed to the user whole -- a source that
            # is itself a root included, whoever else reads it.
            if node.id in root_ids:
                informative.setdefault(node.id, set()).add(ALL_COLUMNS)
            if node.id in kept:
                wide.add(node.id)
        if node.spec.is_source:
            continue
        loose = informative.get(node.id, set())
        for inp, cols in _transfer(node, loose, schemas, whole):
            informative.setdefault(inp.id, set()).update(cols)
        if node.op == "print":
            wide.update(inp.id for inp in node.inputs)
        elif node.id in wide and ALL_COLUMNS not in loose:
            # (a node read whole under the informative demand too
            # passes on the same under both)
            wide.update(inp.id for inp, cols in _transfer(
                node, {ALL_COLUMNS}, schemas, whole) if ALL_COLUMNS in cols)
    return _Demands(informative, wide, kept)


def _transfer(node: Node, out_req: Set[str], schemas: "_Schemas",
              whole: Collection[int]) -> List[Tuple[Node, Set[str]]]:
    """What ``node`` demands of its inputs when ``out_req`` is read of
    it, under the informative demand.  An input it reads no column of
    is left out (a series-valued input ignores its demand: only frame
    ops pass one on)."""
    op = node.op
    inputs = node.inputs
    if op == "getitem_column":
        return [(inputs[0], {node.args["column"]})]
    if op == "getitem_columns":
        return [(inputs[0], set(node.args["columns"]))]
    if op in _PASSTHROUGH:
        return [(inputs[0], out_req | node.used_attrs())]
    if op == "setitem":
        assigned = node.args["column"]
        return [(inputs[0], {c for c in out_req if c != assigned})]
    if op == "rename":
        inverse = {v: k for k, v in node.args["columns"].items()}
        return [(inputs[0], {inverse.get(c, c) for c in out_req})]
    if op == "drop":
        return [(inputs[0], out_req)]
    if op == "groupby_agg":
        return [(inputs[0], set(node.args["keys"]) | {node.args["column"]})]
    if op == "groupby_agg_multi":
        return [(inputs[0], set(node.args["keys"])
                 | set(node.args.get("columns", [])))]
    if op == "groupby_size":
        return [(inputs[0], set(node.args["keys"]))]
    if op in _SERIES_OPS:
        return []
    if op == "print":
        return [(inp, _print_demand(inp)) for inp in inputs]
    if op == "merge" and node.id not in whole:
        sides = _merge_demand(node, out_req, schemas.inputs)
        if sides is not None:
            return list(zip(inputs, sides))
    # Unknown / whole-frame consumers: concat, describe, apply, info,
    # to_csv, reset/set_index, ...
    return [(inp, {ALL_COLUMNS}) for inp in inputs]


class _Schemas:
    """Input column lists for the rules, inferred on first use over the
    subgraph under the node asked about and memoized across the pass.
    Given ``schemas`` (the analyzer's whole-plan pass) they are read as
    they are."""

    def __init__(self, schemas: Optional[dict] = None, session=None):
        from repro.analysis.plan.schema import SchemaContext

        self.fixed = schemas is not None
        self.known = schemas if self.fixed else {}
        self.ctx = None if self.fixed else SchemaContext(session)

    def columns(self, node: Node) -> Optional[Tuple[str, ...]]:
        """``node``'s frame columns; ``None`` when unknown."""
        from repro.analysis.plan.schema import FRAME

        if not self.fixed:
            self._infer(node)
        schema = self.known.get(node.id)
        return (schema.columns if schema is not None
                and schema.kind == FRAME else None)

    def inputs(self, node: Node) -> List[Optional[Tuple[str, ...]]]:
        return [self.columns(inp) for inp in node.inputs]

    def _infer(self, node: Node) -> None:
        from repro.analysis.plan.schema import infer_schema

        known = self.known
        stack = [node]
        while stack:
            top = stack[-1]
            if top.id in known:
                stack.pop()
                continue
            missing = [inp for inp in top.inputs if inp.id not in known]
            if missing:
                stack.extend(missing)
                continue
            known[top.id] = infer_schema(top, known, self.ctx)
            stack.pop()


def _merge_demand(node: Node, out_req: Set[str],
                  columns_of) -> Optional[Tuple[Set[str], Set[str]]]:
    """What each side of a merge must supply for ``out_req``: its keys,
    the columns both sides carry, and the columns of required labels;
    ``None`` when the merge must stay whole."""
    if ALL_COLUMNS in out_req:
        return None
    left, right = columns_of(node)
    if left is None or right is None:
        return None
    try:
        keys = join_keys(left, right, **node.args)
    except ValueError:
        return None
    if not (set(keys[0]) <= set(left) and set(keys[1]) <= set(right)):
        return None
    shared = set(left) & set(right)
    sides = (set(keys[0]) | shared, set(keys[1]) | shared)
    for side, name, label in join_labels(left, right, keys, **node.args):
        if label in out_req:
            sides[side].add(name)
    return sides


def _print_demand(node: Node) -> Set[str]:
    """What printing ``node``'s value demands of it under the paper's
    heuristic (section 3.1): informative calls -- ``head()``,
    ``describe()``, ``info()`` -- make no attribute live; a print of a
    whole frame does."""
    if node.op in ("head", "tail", "describe", "info"):
        return set()
    return {ALL_COLUMNS}
