"""Built-in lint rules and the :func:`analyze_plan` entry point.

Each rule is a generator over one :class:`AnalysisContext` -- the
topologically ordered plan, the inferred per-node schemas
(:mod:`repro.analysis.plan.schema`), the consumer map, and the plan's
deterministic ``N`` numbering (identical to
:func:`repro.graph.explain.render_plan`, so a diagnostic's ``N3`` is the
``N3`` of the rendered plan next to it).

Rules only fire on statically *known* facts: an unknown schema silences
every column check rather than guessing.  All built-ins register into
:data:`~repro.analysis.plan.registry.DEFAULT_ANALYZERS` at import time,
the same way stock scan formats populate ``DEFAULT_SOURCES``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.plan.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.plan.registry import (
    DEFAULT_ANALYZERS,
    AnalyzerRegistry,
    RuleSpec,
)
from repro.analysis.plan.schema import (
    SCALAR,
    NodeSchema,
    dtype_family,
    infer_schemas,
    merge_key_columns,
)
from repro.graph.explain import render_node_line
from repro.graph.node import ALL_COLUMNS, Node, series_used_columns
from repro.graph.taskgraph import topological_order


class AnalysisContext:
    """Everything a rule may inspect about one analyzed plan."""

    def __init__(
        self,
        roots: Sequence[Node],
        session=None,
        scope: str = "plan",
        computed_ids: Optional[Set[int]] = None,
    ):
        self.roots: List[Node] = list(roots)
        self.session = session
        self.scope = scope
        #: node ids the session already computed (session-scope lint
        #: uses this to tell dead subgraphs from consumed results).
        self.computed_ids: Set[int] = set(computed_ids or ())
        self.order: List[Node] = topological_order(self.roots)
        self.numbers: Dict[int, int] = {
            node.id: index + 1 for index, node in enumerate(self.order)
        }
        self.schemas: Dict[int, NodeSchema] = infer_schemas(
            self.order, session
        )
        self.consumers: Dict[int, List[Node]] = {n.id: [] for n in self.order}
        for node in self.order:
            for dep in node.all_deps():
                if dep.id in self.consumers:
                    self.consumers[dep.id].append(node)

    # -- rule helpers ------------------------------------------------------

    def schema(self, node: Node) -> NodeSchema:
        return self.schemas.get(node.id, NodeSchema.unknown())

    def number(self, node: Node) -> int:
        return self.numbers.get(node.id, 0)

    def path(self, node: Node) -> str:
        return render_node_line(node, self.numbers)

    def diagnostic(self, spec: RuleSpec, node: Node,
                   message: str) -> Diagnostic:
        return spec.diagnostic(
            message, node=self.number(node), op=node.op,
            path=self.path(node),
        )

    def dropping_ancestor(self, node: Node,
                          column: str) -> Optional[Node]:
        """The nearest ancestor along the frame-input chain that removed
        ``column`` -- i.e. its own first input still had the column but
        its output does not.  ``None`` when the column never existed."""
        current = node
        while current.inputs:
            parent = current.inputs[0]
            parent_schema = self.schema(parent)
            if parent_schema.known and parent_schema.has_column(column):
                return current
            if not parent_schema.known:
                return None
            current = parent
        return None


# ---------------------------------------------------------------------------
# Which columns does each operator *reference by name* in its args?
# (op -> list of (arg extraction, which input the name must exist in))
# ---------------------------------------------------------------------------


def _as_list(value) -> List[str]:
    if value is None:
        return []
    return [value] if isinstance(value, str) else list(value)


def _column_references(node: Node) -> List[Tuple[int, str]]:
    """(input index, column name) pairs the op looks up by name."""
    args = node.args
    refs: List[Tuple[int, str]] = []
    if node.op == "getitem_column":
        refs.append((0, args["column"]))
    elif node.op == "getitem_columns":
        refs.extend((0, c) for c in args["columns"])
    elif node.op == "sort_values":
        refs.extend((0, c) for c in _as_list(args.get("by")))
    elif node.op == "dropna":
        refs.extend((0, c) for c in _as_list(args.get("subset")))
    elif node.op == "set_index":
        refs.append((0, args["column"]))
    elif node.op == "drop":
        refs.extend((0, c) for c in _as_list(args.get("columns")))
    elif node.op in ("nlargest", "nsmallest"):
        refs.extend((0, c) for c in _as_list(args.get("columns")))
    elif node.op in ("groupby_agg", "groupby_agg_multi", "groupby_size"):
        refs.extend((0, c) for c in _as_list(args.get("keys")))
        refs.extend((0, c) for c in _as_list(args.get("column")))
        refs.extend((0, c) for c in _as_list(args.get("columns")))
    elif node.op == "merge":
        left_keys, right_keys = merge_key_columns(node)
        refs.extend((0, c) for c in (left_keys or []))
        refs.extend((1, c) for c in (right_keys or []))
    return refs


# ---------------------------------------------------------------------------
# LFP001 unknown / ambiguous column references.
# ---------------------------------------------------------------------------


def check_unknown_columns(spec: RuleSpec,
                          ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for node in ctx.order:
        for input_index, column in _column_references(node):
            if input_index >= len(node.inputs):
                continue
            source = node.inputs[input_index]
            schema = ctx.schema(source)
            if not schema.known or schema.has_column(column):
                continue
            if ctx.dropping_ancestor(source, column) is not None:
                continue  # LFP002's finding, not ours
            suffixed = [
                c for c in schema.columns
                if c.startswith(column + "_") and c in (
                    column + "_x", column + "_y",
                )
            ]
            if suffixed:
                yield ctx.diagnostic(
                    spec, node,
                    f"column {column!r} is ambiguous after merge: it was "
                    f"suffixed to {sorted(suffixed)!r}",
                )
            else:
                known = list(schema.columns)
                yield ctx.diagnostic(
                    spec, node,
                    f"unknown column {column!r}; "
                    f"N{ctx.number(source)} has columns {known!r}",
                )


# ---------------------------------------------------------------------------
# LFP002 filter on a dropped column.
# ---------------------------------------------------------------------------


def check_filter_dropped(spec: RuleSpec,
                         ctx: AnalysisContext) -> Iterator[Diagnostic]:
    unknown_spec = DEFAULT_ANALYZERS.get("LFP001")
    for node in ctx.order:
        if node.op != "filter" or len(node.inputs) < 2:
            continue
        frame, mask = node.inputs[0], node.inputs[1]
        schema = ctx.schema(frame)
        if not schema.known:
            continue
        for column in sorted(series_used_columns(mask)):
            if column == ALL_COLUMNS or schema.has_column(column):
                continue
            dropper = ctx.dropping_ancestor(frame, column)
            if dropper is not None:
                yield ctx.diagnostic(
                    spec, node,
                    f"filter reads column {column!r}, which "
                    f"N{ctx.number(dropper)} ({dropper.op}) removed",
                )
            elif unknown_spec is not None:
                yield ctx.diagnostic(
                    unknown_spec, node,
                    f"filter reads unknown column {column!r}; "
                    f"N{ctx.number(frame)} has columns "
                    f"{list(schema.columns)!r}",
                )


# ---------------------------------------------------------------------------
# LFP003 merge key dtype mismatch.
# ---------------------------------------------------------------------------


def check_merge_key_types(spec: RuleSpec,
                          ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for node in ctx.order:
        if node.op != "merge" or len(node.inputs) < 2:
            continue
        left, right = ctx.schema(node.inputs[0]), ctx.schema(node.inputs[1])
        left_keys, right_keys = merge_key_columns(
            node, left.columns, right.columns)
        if left_keys is None:
            continue
        for lk, rk in zip(left_keys, right_keys):
            lfam = dtype_family(left.dtype_of(lk))
            rfam = dtype_family(right.dtype_of(rk))
            if lfam is None or rfam is None or lfam == rfam:
                continue
            yield ctx.diagnostic(
                spec, node,
                f"merge key dtype mismatch: left {lk!r} is "
                f"{left.dtype_of(lk)} ({lfam}) but right {rk!r} is "
                f"{right.dtype_of(rk)} ({rfam})",
            )


# ---------------------------------------------------------------------------
# LFP004 scalar used where a frame/series is required.
# ---------------------------------------------------------------------------

#: ops whose first input must be frame-like (a lazily computed scalar
#: in that position is a graph-construction bug, not a valid plan).
_FRAME_CONSUMING = {
    "filter", "getitem_column", "getitem_columns", "setitem", "dropna",
    "fillna", "astype", "rename", "drop", "sort_values", "sort_index",
    "drop_duplicates", "head", "tail", "sample", "nlargest", "nsmallest",
    "merge", "concat", "groupby_agg", "groupby_agg_multi", "groupby_size",
    "set_index", "reset_index", "describe", "apply", "to_csv",
}


def check_scalar_as_frame(spec: RuleSpec,
                          ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for node in ctx.order:
        if node.op not in _FRAME_CONSUMING:
            continue
        upto = 2 if node.op in ("merge", "concat") else 1
        for inp in node.inputs[:upto]:
            if ctx.schema(inp).kind == SCALAR:
                yield ctx.diagnostic(
                    spec, node,
                    f"{node.op} expects a frame input but "
                    f"N{ctx.number(inp)} ({inp.op}) produces a scalar",
                )


# ---------------------------------------------------------------------------
# LFP005 dead (unconsumed, side-effect-free) subgraphs.
# ---------------------------------------------------------------------------


def check_dead_subgraphs(spec: RuleSpec,
                         ctx: AnalysisContext) -> Iterator[Diagnostic]:
    if ctx.scope != "session":
        # A single frame's plan is *about to be* consumed by definition;
        # only whole-session analysis (CLI lint) can see dead leaves.
        return
    for node in ctx.order:
        if ctx.consumers.get(node.id):
            continue
        if node.spec.side_effect or node.id in ctx.computed_ids:
            continue
        yield ctx.diagnostic(
            spec, node,
            f"{node.op} result is never used: no consumer, no side "
            "effect, and it was never collected",
        )


# ---------------------------------------------------------------------------
# LFP006 pushdown blocked: a foldable projection/predicate is capped.
# ---------------------------------------------------------------------------


def check_pushdown_blocked(spec: RuleSpec,
                           ctx: AnalysisContext) -> Iterator[Diagnostic]:
    from repro.core.optimizer.projection import _required_columns
    from repro.io.predicate import conjuncts_from_mask
    from repro.io.registry import source_capabilities

    scans = [n for n in ctx.order if n.op == "scan"]
    if not scans:
        return

    required = _required_columns(ctx.roots, order=ctx.order,
                                 schemas=ctx.schemas)
    root_ids = {r.id for r in ctx.roots}
    for scan in scans:
        caps = source_capabilities(scan.args.get("format"))
        can_project = caps is not None and caps.supports_projection
        can_predicate = caps is not None and caps.supports_predicate
        narrowed = scan.args.get("columns") is not None

        needs = required.get(scan.id)
        if (can_project and not narrowed and needs
                and ALL_COLUMNS in needs):
            culprit = _all_columns_culprit(ctx, scan, root_ids)
            if culprit is not None:
                yield ctx.diagnostic(
                    spec, culprit,
                    f"{culprit.op} reads all columns, blocking projection "
                    f"pushdown into the N{ctx.number(scan)} {scan.op}",
                )

        if not can_predicate:
            continue
        for consumer in ctx.consumers.get(scan.id, ()):
            if consumer.op != "filter" or len(consumer.inputs) < 2:
                continue
            if consumer.inputs[0].id != scan.id:
                continue
            mask = consumer.inputs[1]
            if conjuncts_from_mask(mask, scan) is None:
                yield ctx.diagnostic(
                    spec, consumer,
                    "filter cannot fold into the "
                    f"N{ctx.number(scan)} scan: the mask is not a "
                    "conjunction of column-vs-literal comparisons",
                )


def _all_columns_culprit(ctx: AnalysisContext, scan: Node,
                        root_ids: Set[int]) -> Optional[Node]:
    """The nearest transitive consumer of ``scan`` that demands all
    columns through its own ``used_attrs`` -- excluding plan roots (a
    root frame is handed to the user whole; nothing to hint about)."""
    stack = list(ctx.consumers.get(scan.id, ()))
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node.id not in root_ids and not node.spec.is_source:
            try:
                used = node.used_attrs()
            except Exception:  # noqa: BLE001 - args may be malformed
                used = set()
            if ALL_COLUMNS in used:
                return node
        stack.extend(ctx.consumers.get(node.id, ()))
    return None


# ---------------------------------------------------------------------------
# Registration + the entry point.
# ---------------------------------------------------------------------------

BUILTIN_RULES = [
    RuleSpec(
        code="LFP001", rule="unknown-column", severity=Severity.ERROR,
        check=check_unknown_columns,
        description="an op references a column its input provably lacks",
    ),
    RuleSpec(
        code="LFP002", rule="filter-on-dropped-column",
        severity=Severity.ERROR, check=check_filter_dropped,
        description="a filter mask reads a column an upstream op removed",
    ),
    RuleSpec(
        code="LFP003", rule="merge-key-type-mismatch",
        severity=Severity.ERROR, check=check_merge_key_types,
        description="merge keys with provably incompatible dtype families",
    ),
    RuleSpec(
        code="LFP004", rule="scalar-used-as-frame",
        severity=Severity.ERROR, check=check_scalar_as_frame,
        description="a frame-consuming op is fed a scalar-producing node",
    ),
    RuleSpec(
        code="LFP005", rule="dead-subgraph", severity=Severity.WARNING,
        check=check_dead_subgraphs, scope="session",
        description="side-effect-free work whose result nothing consumes",
    ),
    RuleSpec(
        code="LFP006", rule="pushdown-blocked", severity=Severity.HINT,
        check=check_pushdown_blocked,
        description="a foldable projection/predicate is capped by an "
                    "all-columns op",
    ),
]

for _spec in BUILTIN_RULES:
    DEFAULT_ANALYZERS.register(_spec)


def analyze_plan(
    roots: Sequence[Node],
    session=None,
    registry: Optional[AnalyzerRegistry] = None,
    scope: str = "plan",
    computed_ids: Optional[Set[int]] = None,
) -> List[Diagnostic]:
    """Run every registered rule over the plan; deterministic order.

    A rule that raises is skipped (analysis must never be the thing
    that breaks a plan); its findings are simply absent.
    """
    ctx = AnalysisContext(
        roots, session=session, scope=scope, computed_ids=computed_ids
    )
    findings: List[Diagnostic] = []
    for spec in (registry or DEFAULT_ANALYZERS).rules(scope=scope):
        try:
            findings.extend(spec.check(spec, ctx))
        except Exception:  # noqa: BLE001 - a broken rule must not block plans
            continue
    return sorted(findings, key=sort_key)
