"""Runtime projection pushdown: narrow sources to needed columns.

Static analysis (section 3.1) already injects ``usecols`` where the whole
program is analysable.  This runtime pass is the complement for graphs
built purely dynamically: it propagates a *required-column* set backward
from the roots to each source, with per-operator transfer functions, and
terminates by narrowing the source itself: the ``columns`` arg folded
into a ``scan`` node when its registered source format declares
``supports_projection``.

Conservative by construction: any operator whose column flow is unknown
(merge outputs, UDF apply, prints of whole frames, describe, ...) marks
its frame inputs as requiring *all* columns.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.graph.node import ALL_COLUMNS, Node
from repro.graph.taskgraph import collect_subgraph, topological_order

#: Operators through which the requirement set passes untouched.
_PASSTHROUGH = frozenset({
    "filter", "dropna", "head", "tail", "sample", "sort_index",
    "drop_duplicates", "sort_values", "fillna", "astype", "round",
    "identity", "abs",
})


def push_down_projections(roots: Sequence[Node]) -> int:
    """Narrow eligible sources; returns how many were narrowed."""
    nodes = collect_subgraph(roots)
    required = _required_columns(roots, nodes)
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
    roots: Sequence[Node], nodes: Sequence[Node],
    order: Optional[Sequence[Node]] = None,
) -> Dict[int, Set[str]]:
    """Backward column-requirement propagation (reverse topological).

    ``order``, when given, must be ``topological_order(roots)`` -- callers
    that already sorted the subgraph (the plan analyzer) skip the resort.
    """
    required: Dict[int, Set[str]] = {}
    root_ids = {r.id for r in roots}
    if order is None:
        order = topological_order(roots)

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
        # Unknown / whole-frame consumers: merge, concat, describe, apply,
        # info, to_csv, nlargest*, reset/set_index, ...  (A series-valued
        # input ignores the demand: only frame ops pass one on.)
        for inp in node.inputs:
            demand(inp, {ALL_COLUMNS})
    return required


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
