"""Task-graph nodes and the operator registry.

Each :class:`Node` records an operation name (key into :data:`OPS`), the
nodes it consumes, and plain-value arguments.  :class:`OpSpec` carries the
semantic facts the runtime optimizer needs (section 3.2):

- ``mod_attrs``      -- columns the operator modifies or computes,
- ``used_attrs``     -- columns it reads,
- ``row_preserving`` -- filtering input rows does not change the values of
                        surviving output rows (safe-point condition 2),
- ``side_effect``    -- produces output; never moved or eliminated,
- ``is_source`` / ``is_filter`` -- structural roles for pushdown.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.frame.merge import join_keys

_node_ids = itertools.count(1)

#: Wildcard marker: "all columns of the frame".
ALL_COLUMNS = "*"


@dataclasses.dataclass
class OpSpec:
    """Static semantics of one operator kind."""

    name: str
    #: columns modified/computed; callable(node) -> set, or a constant set.
    mod_attrs: Callable[["Node"], Set[str]] = lambda node: set()
    #: columns read; callable(node) -> set (may contain ALL_COLUMNS).
    used_attrs: Callable[["Node"], Set[str]] = lambda node: {ALL_COLUMNS}
    #: True when filtering rows upstream commutes with this operator.
    row_preserving: bool = False
    side_effect: bool = False
    is_source: bool = False
    is_filter: bool = False
    #: True when the op returns a scalar (aggregations, len).
    scalar: bool = False
    #: False when the op's result must never be served from (or
    #: inserted into) the cross-session result cache -- nondeterminism
    #: (``sample``) or store-valued results (shuffle staging).
    #: Non-cacheable ops poison their whole consumer subtree.
    cacheable: bool = True


OPS: Dict[str, OpSpec] = {}


def register_op(spec: OpSpec) -> OpSpec:
    OPS[spec.name] = spec
    return spec


class Node:
    """One operation in the LaFP task graph."""

    __slots__ = (
        "id",
        "op",
        "inputs",
        "args",
        "order_deps",
        "result",
        "computed",
        "persist",
        "label",
        "rank",
        # weak-referenceable: the cross-session node map (marker
        # resolution for lazy print) holds nodes weakly.
        "__weakref__",
    )

    def __init__(
        self,
        op: str,
        inputs: Sequence["Node"] = (),
        args: Optional[dict] = None,
        order_deps: Sequence["Node"] = (),
        label: Optional[str] = None,
    ):
        if op not in OPS:
            raise KeyError(f"unregistered operator {op!r}")
        self.id = next(_node_ids)
        self.op = op
        self.inputs: List[Node] = list(inputs)
        self.args = args or {}
        #: ordering-only dependencies (print chains, forced compute).
        self.order_deps: List[Node] = list(order_deps)
        self.result = None
        self.computed = False
        self.persist = False
        self.label = label
        #: its place in the program: its id, kept by what is rebuilt from it
        self.rank = self.id

    # -- semantics ---------------------------------------------------------

    @property
    def spec(self) -> OpSpec:
        return OPS[self.op]

    def mod_attrs(self) -> Set[str]:
        return self.spec.mod_attrs(self)

    def used_attrs(self) -> Set[str]:
        return self.spec.used_attrs(self)

    def all_deps(self) -> List["Node"]:
        return self.inputs + self.order_deps

    def clear_result(self) -> None:
        """Drop the materialized result (unless persisted)."""
        if not self.persist:
            self.result = None
            self.computed = False

    def set_result(self, value) -> None:
        self.result = value
        self.computed = True

    def rebuilt(self, inputs: Optional[Sequence["Node"]] = None,
                **args) -> "Node":
        """A fresh node for a rewrite to put in this one's place: the
        same op, ordering deps, label and rank, ``inputs`` when given,
        and ``args`` over this one's."""
        node = Node(self.op, self.inputs if inputs is None else inputs,
                    {**self.args, **args} if args else self.args,
                    self.order_deps, self.label)
        node.rank = self.rank
        return node

    def twin(self) -> "Node":
        """This node's stand-in in one run's private plan
        (:func:`repro.graph.taskgraph.physical_plan` wires them up).

        Same id -- fingerprints and the copy back of values go by it --
        and the same ``args``, which no pass changes (a rewrite builds a
        fresh node), but wiring of its own, so a pass may repoint the
        twin's inputs at will.  A node that already holds its value is
        stood for, not copied: a ``held`` leaf naming it and carrying
        the value, so no pass looks, or moves an operator, below a
        value somebody keeps.
        """
        twin = Node.__new__(Node)
        twin.id = self.id
        if self.computed:
            twin.op = "held"
            twin.args = {"node": self}
        else:
            twin.op = self.op
            twin.args = self.args
        twin.inputs = []
        twin.order_deps = []
        twin.result = self.result
        twin.computed = self.computed
        twin.persist = self.persist
        twin.label = self.label
        twin.rank = self.rank
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f" {self.label}" if self.label else ""
        return f"<Node {self.id} {self.op}{extra}>"


# ---------------------------------------------------------------------------
# Operator registry.
#
# ``used_attrs`` helpers read the node's args; filter predicates compute
# their used columns by walking the mask expression subgraph (see
# ``series_used_columns``).
# ---------------------------------------------------------------------------


def _arg_cols_or_all(*arg_names: str) -> Callable[[Node], Set[str]]:
    """Column args when given; otherwise the whole frame is inspected
    (e.g. ``dropna()`` with no subset checks every column)."""

    def used(node: Node) -> Set[str]:
        out: Set[str] = set()
        found = False
        for name in arg_names:
            value = node.args.get(name)
            if value is None:
                continue
            found = True
            if isinstance(value, str):
                out.add(value)
            else:
                out.update(value)
        return out if found else {ALL_COLUMNS}

    return used


def _arg_cols(*arg_names: str) -> Callable[[Node], Set[str]]:
    def used(node: Node) -> Set[str]:
        out: Set[str] = set()
        for name in arg_names:
            value = node.args.get(name)
            if value is None:
                continue
            if isinstance(value, str):
                out.add(value)
            else:
                out.update(value)
        return out

    return used


def series_used_columns(node: Node) -> Set[str]:
    """Columns of the *originating frame* read by a series expression.

    Walks the expression subgraph upward through elementwise ops until
    frame-level nodes are reached; a ``getitem_column`` contributes its
    column name.  Anything unrecognised degrades to ``ALL_COLUMNS``.
    """
    out: Set[str] = set()
    stack = [node]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur.id in seen:
            continue
        seen.add(cur.id)
        if cur.op == "getitem_column":
            out.add(cur.args["column"])
            continue  # do not walk into the frame itself
        if cur.op in _ELEMENTWISE_SERIES_OPS or cur.op == "filter":
            stack.extend(cur.inputs)
        elif cur.spec.is_source:
            continue
        else:
            out.add(ALL_COLUMNS)
    return out


_ELEMENTWISE_SERIES_OPS = frozenset({
    "binop",
    "unop",
    "str_method",
    "dt_field",
    "isin",
    "between",
    "isna",
    "notna",
    "series_fillna",
    "series_astype",
    "to_datetime",
    "series_map",
})


def _filter_used(node: Node) -> Set[str]:
    # inputs = [frame, mask]
    return series_used_columns(node.inputs[1])


def _setitem_mod(node: Node) -> Set[str]:
    return {node.args["column"]}


def _setitem_used(node: Node) -> Set[str]:
    if len(node.inputs) > 1:
        return series_used_columns(node.inputs[1])
    return set()


def _rename_mod(node: Node) -> Set[str]:
    mapping = node.args.get("columns", {})
    return set(mapping) | set(mapping.values())


def _merge_used(node: Node) -> Set[str]:
    """Join keys by the one key rule; a natural join inspects every
    shared column, so it degrades to ALL_COLUMNS."""
    keys = join_keys(None, None, **node.args)
    return set(keys[0]) | set(keys[1]) if keys else {ALL_COLUMNS}


# Every registration passes ``mod_attrs`` and ``used_attrs`` explicitly
# -- even when they match the OpSpec defaults -- so the declared column
# semantics are visible at the registration site and an over-claiming
# ALL_COLUMNS is a deliberate annotation, not a silent fallback
# (tools/check_invariants.py enforces this for new operators).

_NO_COLS = lambda n: set()          # noqa: E731 - registration shorthand
_ALL_COLS = lambda n: {ALL_COLUMNS}  # noqa: E731 - registration shorthand

register_op(OpSpec(
    # the one file-source leaf: args carry a format name, a path, and the
    # folded-in scan contract (columns / predicate / kept partitions);
    # repro.io resolves them back into a DataSource at execution time.
    "scan",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    is_source=True,
))
register_op(OpSpec(
    # a cache-substituted subplan: args carry the serialized result
    # blob, its size, kind, and the plan fingerprint as key.  Emitted
    # only by the substitution pass in ``repro.core.optimizer.cache``;
    # never built by user code and never re-cached.
    "from_cached",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    is_source=True,
    cacheable=False,
))
register_op(OpSpec(
    # a value the user's graph already holds (a collected root, a pin):
    # the leaf :meth:`Node.twin` puts in a plan where that node stood.
    # ``args["node"]`` names the raw node, whose plan the leaf stands
    # for wherever plans are compared (fingerprints, cacheability).
    "held",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    is_source=True,
))
register_op(OpSpec(
    "from_data",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    is_source=True,
))
register_op(OpSpec(
    "from_pandas",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    is_source=True,
))
register_op(OpSpec(
    "identity",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "getitem_column",
    mod_attrs=_NO_COLS,
    used_attrs=_arg_cols("column"),
    row_preserving=True,
))
register_op(OpSpec(
    "getitem_columns",
    mod_attrs=_NO_COLS,
    used_attrs=_arg_cols("columns"),
    row_preserving=True,
))
register_op(OpSpec(
    "filter",
    mod_attrs=_NO_COLS,
    used_attrs=_filter_used,
    row_preserving=True,
    is_filter=True,
))
register_op(OpSpec(
    "setitem",
    mod_attrs=_setitem_mod,
    used_attrs=_setitem_used,
    row_preserving=True,
))
register_op(OpSpec(
    "binop",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "unop", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=True,
))
register_op(OpSpec(
    "str_method", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "dt_field", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "isin", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=True,
))
register_op(OpSpec(
    "between", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=True,
))
register_op(OpSpec(
    "isna", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=True,
))
register_op(OpSpec(
    "notna", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=True,
))
register_op(OpSpec(
    "series_fillna", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "series_astype", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "series_map", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
# window/positional series ops: results depend on neighbouring rows, so
# filters never commute through them (not elementwise, not row_preserving).
register_op(OpSpec("series_call", mod_attrs=_NO_COLS, used_attrs=_NO_COLS))
register_op(OpSpec(
    "to_datetime", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "astype",
    mod_attrs=lambda n: set(n.args.get("dtype", {}))
    if isinstance(n.args.get("dtype"), dict)
    else {ALL_COLUMNS},
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "fillna",
    mod_attrs=_ALL_COLS,
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "dropna",
    mod_attrs=_NO_COLS,
    used_attrs=_arg_cols_or_all("subset"),
    row_preserving=True,  # a dropna is itself a filter; rows commute
))
register_op(OpSpec(
    "rename",
    mod_attrs=_rename_mod,
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "drop",
    mod_attrs=lambda n: set(n.args.get("columns", [])),
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "sort_values",
    mod_attrs=_NO_COLS,
    used_attrs=_arg_cols("by"),
    row_preserving=True,
))
register_op(OpSpec(
    "sort_index", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "drop_duplicates",
    mod_attrs=_NO_COLS,
    used_attrs=_arg_cols_or_all("subset"),
    # Filtering first can change *which* representative row survives, but
    # never produces a row that fails the filter; the paper lists
    # drop_duplicates as safe to swap with filters.
    row_preserving=True,
))
register_op(OpSpec(
    "round",
    mod_attrs=_ALL_COLS,
    used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec(
    "abs",
    mod_attrs=_ALL_COLS,
    used_attrs=_NO_COLS,
    row_preserving=True,
))

# Row-count-changing / aggregate operators: predicates never move below.
register_op(OpSpec(
    "groupby_agg", mod_attrs=_NO_COLS,
    used_attrs=_arg_cols("keys", "column"),
))
register_op(OpSpec(
    "groupby_agg_multi", mod_attrs=_NO_COLS,
    used_attrs=_arg_cols("keys", "columns"),
))
register_op(OpSpec(
    "groupby_size", mod_attrs=_NO_COLS, used_attrs=_arg_cols("keys"),
))
# merge reads its declared join keys (a natural join still claims all
# shared columns); concat and the series reshapers reference no columns
# by name at all -- they used to over-claim ALL_COLUMNS by default.
register_op(OpSpec("merge", mod_attrs=_NO_COLS, used_attrs=_merge_used))
register_op(OpSpec("concat", mod_attrs=_NO_COLS, used_attrs=_NO_COLS))


# Shuffle operators.  These are never built by user code: the partition
# cut (``repro.core.optimizer.partitions``) builds its per-partition
# aggregates and joins from them, on every engine.

def _shuffle_write_mod(node: Node) -> Set[str]:
    # the appended row-position column used to restore merge row order
    pos = node.args.get("pos_name")
    return {pos} if pos else set()


def _partial_agg_used(node: Node) -> Set[str]:
    out: Set[str] = set(node.args.get("keys") or ())
    for col, _func, _label in node.args.get("pairs") or ():
        out.add(col)
    return out


def _partial_agg_mod(node: Node) -> Set[str]:
    return {label for _col, _func, label in node.args.get("pairs") or ()}


def _combine_agg_used(node: Node) -> Set[str]:
    if node.args.get("kind") == "merge":
        return set(node.args.get("pos_names") or ())
    out: Set[str] = set(node.args.get("keys") or ())
    for spec in node.args.get("outputs") or ():
        if spec.get("mode") == "mean":
            out.add(spec["sum"])
            out.add(spec["count"])
        else:
            out.add(spec["partial"])
    return out


def _combine_agg_mod(node: Node) -> Set[str]:
    if node.args.get("kind") == "merge":
        return set()
    return {spec["label"] for spec in node.args.get("outputs") or ()}


register_op(OpSpec(
    # hash-split one input's partitions into P spillable buckets; the
    # result is a ShuffleStore, not a frame
    "shuffle_write",
    mod_attrs=_shuffle_write_mod,
    used_attrs=_arg_cols("keys"),
    cacheable=False,
))
register_op(OpSpec(
    # read one bucket back out of a ShuffleStore as an eager frame
    "shuffle_read",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
    cacheable=False,
))
register_op(OpSpec(
    # identity rebuild with payload-owning columns: cuts the heap-store
    # sharing chain so a bucket-local result does not pin its (much
    # larger) input bucket's string payload until the final combine
    "compact",
    mod_attrs=_NO_COLS,
    used_attrs=_NO_COLS,
))
register_op(OpSpec(
    # per-partition partial aggregation: keys + labeled partial columns
    "partial_agg",
    mod_attrs=_partial_agg_mod,
    used_attrs=_partial_agg_used,
))
register_op(OpSpec(
    # fan-in: re-aggregate stacked partials, restitch merged buckets
    # back into the in-memory row order via the position columns, or
    # fold per-partition scalar reductions
    "combine_agg",
    mod_attrs=_combine_agg_mod,
    used_attrs=_combine_agg_used,
))
register_op(OpSpec(
    "head", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=False,
))
register_op(OpSpec(
    "tail", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, row_preserving=False,
))
register_op(OpSpec(
    "nlargest", mod_attrs=_NO_COLS, used_attrs=_arg_cols("columns"),
))
register_op(OpSpec(
    "nsmallest", mod_attrs=_NO_COLS, used_attrs=_arg_cols("columns"),
))
# describe/info genuinely inspect every column: ALL_COLUMNS is the
# honest declaration, stated explicitly rather than inherited.
register_op(OpSpec("describe", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS))
register_op(OpSpec("info", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS))
register_op(OpSpec("value_counts", mod_attrs=_NO_COLS, used_attrs=_NO_COLS))
register_op(OpSpec(
    "series_agg", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, scalar=True,
))
register_op(OpSpec(
    "series_len", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, scalar=True,
))
register_op(OpSpec(
    "frame_len", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, scalar=True,
))
register_op(OpSpec(
    "nunique", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, scalar=True,
))
register_op(OpSpec("unique", mod_attrs=_NO_COLS, used_attrs=_NO_COLS))
register_op(OpSpec(
    "to_frame_series", mod_attrs=_NO_COLS, used_attrs=_NO_COLS,
    row_preserving=True,
))
register_op(OpSpec("reset_index", mod_attrs=_NO_COLS, used_attrs=_NO_COLS))
register_op(OpSpec(
    "set_index", mod_attrs=_NO_COLS, used_attrs=_arg_cols("column"),
))
# UDF / runtime-dependent operators: column flow is unknowable, ALL stays.
register_op(OpSpec("apply", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS))
register_op(OpSpec("assign", mod_attrs=_ALL_COLS, used_attrs=_ALL_COLS))
register_op(OpSpec(
    "select_columns_if", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS,
))
register_op(OpSpec(
    # unseeded randomness: the value is not a function of the plan, so
    # it (and everything computed over it) must never be cached.
    "sample", mod_attrs=_NO_COLS, used_attrs=_NO_COLS, cacheable=False,
))

# Side-effect operators: they render their whole input.
register_op(OpSpec(
    "print", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS, side_effect=True,
))
register_op(OpSpec(
    "to_csv", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS, side_effect=True,
))
register_op(OpSpec(
    "plot_call", mod_attrs=_NO_COLS, used_attrs=_ALL_COLS, side_effect=True,
))
