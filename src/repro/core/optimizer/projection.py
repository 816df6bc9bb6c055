"""Runtime projection pushdown: narrow sources to needed columns.

Static analysis (section 3.1) already injects ``usecols`` where the whole
program is analysable.  This runtime pass is the complement for graphs
built purely dynamically: it propagates a *required-column* set backward
from the roots to each source, with per-operator transfer functions, and
terminates by narrowing the source itself: the ``columns`` arg folded
into a ``scan`` node when its registered source format declares
``supports_projection``.

A ``merge`` maps its required output labels back to each side with the
one join label rule (:func:`repro.frame.merge.join_labels`) over the
input column lists the schema pass infers -- only for the subgraph under
a merge, and only when a merge is met.  Each side keeps its key
columns, every column the two sides share (so no ``_x`` / ``_y`` suffix
appears or disappears when the other side narrows) and every column
whose output label is required.  A merge stays whole when it must
yield every column, when either side's columns are unknown, when the
key rule rejects it, or when it is a result-cache insertion candidate
(``optimizer.reuse``): its value is cached under the raw plan's
fingerprint, which a narrowed merge no longer computes.

Conservative by construction: any operator whose column flow is unknown
(UDF apply, prints of whole frames, describe, ...) marks its frame
inputs as requiring *all* columns.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.frame.merge import join_keys, join_labels
from repro.graph.node import ALL_COLUMNS, Node
from repro.graph.taskgraph import collect_subgraph, topological_order

#: Operators through which the requirement set passes untouched.
_PASSTHROUGH = frozenset({
    "filter", "dropna", "head", "tail", "sample", "sort_index",
    "drop_duplicates", "sort_values", "fillna", "astype", "round",
    "identity", "abs",
})


def push_down_projections(roots: Sequence[Node], session=None,
                          whole: Collection[int] = ()) -> int:
    """Narrow eligible sources; returns how many were narrowed.

    ``session`` resolves source schemas for the merge rule; the merges
    whose ids are in ``whole`` keep every column.
    """
    nodes = collect_subgraph(roots)
    required = _required_columns(roots, session=session, whole=whole)
    narrowed = 0
    for node in nodes:
        if node.op != "scan" or not _scan_supports_projection(node):
            continue
        if node.args.get("columns") is not None:
            continue
        needs = required.get(node.id)
        if needs is None or ALL_COLUMNS in needs:
            continue
        if not needs:
            continue  # degenerate; leave untouched
        node.args["columns"] = sorted(needs)
        narrowed += 1
    return narrowed


def _scan_supports_projection(node: Node) -> bool:
    from repro.io.registry import source_capabilities

    spec = source_capabilities(node.args.get("format"))
    return spec is not None and spec.supports_projection


def _required_columns(
    roots: Sequence[Node],
    order: Optional[Sequence[Node]] = None,
    schemas: Optional[dict] = None,
    session=None,
    whole: Collection[int] = (),
) -> Dict[int, Set[str]]:
    """Backward column-requirement propagation (reverse topological).

    ``order``, when given, must be ``topological_order(roots)`` and
    ``schemas`` the schema pass over it -- callers that already have
    them (the plan analyzer) skip the resort and the inference.
    Without ``schemas`` a merge infers its inputs' on first use.
    """
    required: Dict[int, Set[str]] = {}
    root_ids = {r.id for r in roots}
    if order is None:
        order = topological_order(roots)
    columns_of = _input_columns(schemas, session)

    def demand(node: Node, cols: Set[str]) -> None:
        bucket = required.setdefault(node.id, set())
        bucket.update(cols)

    for node in reversed(order):
        if node.id in root_ids and not node.spec.scalar:
            # A root frame is handed to the user whole -- a source that
            # is itself a root included, whoever else reads it.
            demand(node, {ALL_COLUMNS})
        out_req = required.get(node.id, set())

        op = node.op
        if node.spec.is_source:
            continue
        if op == "getitem_column":
            demand(node.inputs[0], {node.args["column"]})
            _demand_rest(node, demand, start=1)
            continue
        if op == "getitem_columns":
            demand(node.inputs[0], set(node.args["columns"]))
            continue
        if op in _PASSTHROUGH:
            frame = node.inputs[0]
            extra = node.used_attrs()
            demand(frame, out_req | extra)
            _demand_rest(node, demand, start=1)
            continue
        if op == "setitem":
            assigned = node.args["column"]
            passed = {c for c in out_req if c != assigned}
            demand(node.inputs[0], passed)
            _demand_rest(node, demand, start=1)
            continue
        if op in ("rename", "drop"):
            if op == "rename":
                inverse = {v: k for k, v in node.args["columns"].items()}
                passed = {inverse.get(c, c) for c in out_req}
            else:
                passed = set(out_req)
            demand(node.inputs[0], passed)
            continue
        if op == "groupby_agg":
            demand(
                node.inputs[0],
                set(node.args["keys"]) | {node.args["column"]},
            )
            continue
        if op in ("groupby_agg_multi",):
            demand(
                node.inputs[0],
                set(node.args["keys"]) | set(node.args.get("columns", [])),
            )
            continue
        if op == "groupby_size":
            demand(node.inputs[0], set(node.args["keys"]))
            continue
        if op in (
            "binop", "unop", "str_method", "dt_field", "isin", "between",
            "isna", "notna", "series_fillna", "series_astype", "series_map",
            "to_datetime", "series_agg", "series_len", "nunique", "unique",
            "value_counts", "to_frame_series",
        ):
            # Series-level: inputs are series nodes, handled transitively.
            for inp in node.inputs:
                demand(inp, set())
            continue
        if op == "print":
            for inp in node.inputs:
                demand(inp, _print_demand(inp))
            continue
        if op == "merge" and node.id not in whole:
            sides = _merge_demand(node, out_req, columns_of)
            if sides is not None:
                for inp, cols in zip(node.inputs, sides):
                    demand(inp, cols)
                continue
        # Unknown / whole-frame consumers: concat, describe, apply,
        # info, to_csv, nlargest*, reset/set_index, ...  (A series-valued
        # input ignores the demand: only frame ops pass one on.)
        for inp in node.inputs:
            demand(inp, {ALL_COLUMNS})
    return required


def _input_columns(schemas: Optional[dict], session):
    """``columns_of(merge)``: the merge's two input column lists (a list
    is ``None`` when unknown).  ``schemas`` is read as given; without it
    the schema pass runs on first use, over the subgraph under the
    merge's inputs only, memoized across merges."""
    from repro.analysis.plan.schema import (
        FRAME, SchemaContext, infer_schema,
    )

    known = schemas
    if known is None:
        known, ctx = {}, SchemaContext(session)

    def columns_of(merge: Node) -> List[Optional[Tuple[str, ...]]]:
        if schemas is None:
            for node in topological_order(merge.inputs):
                if node.id not in known:
                    known[node.id] = infer_schema(node, known, ctx)
        out = []
        for inp in merge.inputs:
            schema = known.get(inp.id)
            out.append(schema.columns if schema is not None
                       and schema.kind == FRAME else None)
        return out

    return columns_of


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


def _demand_rest(node: Node, demand, start: int) -> None:
    for inp in node.inputs[start:]:
        demand(inp, set())


def _print_demand(node: Node) -> Set[str]:
    """What printing ``node``'s value demands of it.

    Mirrors the paper's heuristic (section 3.1): informative calls --
    ``head()``, ``describe()``, ``info()`` -- do not make all attributes
    live, since their output "does not affect the intended program
    result"; a print of a whole frame does.
    """
    if node.op in ("head", "tail", "describe", "info"):
        return set()
    return {ALL_COLUMNS}
