"""Forward schema inference over the task graph.

Every :class:`~repro.graph.node.Node` gets a :class:`NodeSchema` -- the
statically known shape of its output: frame/series/scalar kind, column
names in order, per-column dtypes where sources (headers, ``dtype``
args, metastore statistics) or the algebra itself (comparisons are
bool, ``dt`` fields are ints) determine them, and the named index
columns that ``set_index`` / ``groupby(as_index=True)`` introduce.

The pass is a single forward walk in topological order with one
*transfer function per operator* (:data:`SCHEMA_RULES`); results are
memoized per node within the pass.  A scan's header, footer dtypes and
metastore entry come from the session's source table
(:mod:`repro.io.source_table`), read once per session however many
passes infer over the plan.  Inference is three-valued by
design: anything not statically derivable degrades to *unknown*
(``columns is None``), never to a guess -- lint rules only fire on known
facts, and byte estimates fall back to their old heuristics.

Coverage is enforced, not hoped for: :func:`infer_schema` raises
``KeyError`` for an operator missing from :data:`SCHEMA_RULES`, and the
test suite sweeps every op registered in :data:`repro.graph.node.OPS`,
so a newly registered operator without schema semantics fails loudly.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.frame.groupby import agg_outputs
from repro.frame.merge import join_keys, join_labels
from repro.graph.node import Node
from repro.graph.taskgraph import topological_order

#: kinds a node's output can have.
FRAME, SERIES, SCALAR, UNKNOWN = "frame", "series", "scalar", "unknown"


@dataclasses.dataclass(frozen=True)
class NodeSchema:
    """Statically known output shape of one node.

    ``columns`` is ``None`` when unknown; for series it is the 1-tuple
    of the series name (when known).  ``dtypes`` is always partial:
    missing entries mean "not statically known", never "object".
    ``index`` names the index columns (empty for the default range
    index or when unknown).
    """

    kind: str = UNKNOWN
    columns: Optional[Tuple[str, ...]] = None
    dtypes: Tuple[Tuple[str, str], ...] = ()
    index: Tuple[str, ...] = ()

    # -- accessors ---------------------------------------------------------

    @property
    def known(self) -> bool:
        return self.columns is not None

    def dtype_of(self, column: str) -> Optional[str]:
        for name, dtype in self.dtypes:
            if name == column:
                return dtype
        return None

    def dtype_map(self) -> Dict[str, str]:
        return dict(self.dtypes)

    def has_column(self, column: str) -> bool:
        """Is ``column`` addressable (a data column or a named index)?"""
        if self.columns is None:
            return True  # unknown schema: never claim absence
        return column in self.columns or column in self.index

    # -- constructors ------------------------------------------------------

    @classmethod
    def frame(cls, columns: Optional[Sequence[str]],
              dtypes: Optional[Dict[str, str]] = None,
              index: Sequence[str] = ()) -> "NodeSchema":
        cols = tuple(columns) if columns is not None else None
        keep = tuple(sorted(
            (k, v) for k, v in (dtypes or {}).items()
            if cols is None or k in cols or k in tuple(index)
        ))
        return cls(kind=FRAME, columns=cols, dtypes=keep, index=tuple(index))

    @classmethod
    def series(cls, name: Optional[str] = None,
               dtype: Optional[str] = None,
               index: Sequence[str] = ()) -> "NodeSchema":
        cols = (name,) if name is not None else None
        dtypes = ((name, dtype),) if (name is not None and dtype) else ()
        return cls(kind=SERIES, columns=cols, dtypes=dtypes,
                   index=tuple(index))

    @classmethod
    def scalar(cls) -> "NodeSchema":
        return cls(kind=SCALAR, columns=())

    @classmethod
    def unknown(cls, kind: str = UNKNOWN) -> "NodeSchema":
        cached = _UNKNOWN_SCHEMAS.get(kind)
        return cached if cached is not None else cls(kind=kind, columns=None)

    @property
    def series_name(self) -> Optional[str]:
        if self.kind == SERIES and self.columns:
            return self.columns[0]
        return None

    @property
    def series_dtype(self) -> Optional[str]:
        name = self.series_name
        return self.dtype_of(name) if name is not None else None


#: interned unknown schemas -- inference produces these constantly (the
#: frozen dataclass is immutable, so sharing instances is safe).
_UNKNOWN_SCHEMAS = MappingProxyType({
    kind: NodeSchema(kind=kind, columns=None)
    for kind in (UNKNOWN, FRAME, SERIES, SCALAR)
})

#: dtype families for compatibility checks (merge keys) and widths.
_NUMERIC_DTYPES = frozenset({"int64", "float64", "bool", "category"})


def dtype_family(dtype: Optional[str]) -> Optional[str]:
    """Coarse dtype family: ``numeric`` / ``datetime`` / ``string``."""
    if dtype is None:
        return None
    if dtype in _NUMERIC_DTYPES or dtype.startswith(("int", "float", "uint")):
        return "numeric"
    if dtype.startswith("datetime"):
        return "datetime"
    if dtype in ("object", "str", "string"):
        return "string"
    return None


def normalize_dtype(dtype: object) -> Optional[str]:
    """Map a numpy/user dtype spec onto the metastore's logical names."""
    if dtype is None:
        return None
    if isinstance(dtype, str):
        return dtype
    kind = getattr(dtype, "kind", None)
    if kind is None:
        kind = getattr(getattr(dtype, "dtype", None), "kind", None)
    return {
        "i": "int64", "u": "int64", "f": "float64", "b": "bool",
        "M": "datetime64[ns]", "O": "object", "U": "object", "S": "object",
    }.get(kind, str(dtype) if kind else None)


# ---------------------------------------------------------------------------
# The inference pass.
# ---------------------------------------------------------------------------

TransferFn = Callable[[Node, List[NodeSchema], "SchemaContext"], NodeSchema]

#: operator name -> transfer function; every op in OPS must be covered.
SCHEMA_RULES: Dict[str, TransferFn] = {}


def schema_rule(*ops: str) -> Callable[[TransferFn], TransferFn]:
    def register(fn: TransferFn) -> TransferFn:
        for op in ops:
            SCHEMA_RULES[op] = fn
        return fn
    return register


class SchemaContext:
    """Pass-wide state: the session, whose source table holds each
    scan's source -- its header (or footer) and metastore entry are read
    once per session, not once per pass (:mod:`repro.io.source_table`)."""

    def __init__(self, session=None):
        self.session = session
        self.metastore = getattr(session, "metastore", None)

    def scan_facts(self, args: dict) -> Tuple[Optional[List[str]],
                                              Dict[str, str]]:
        """A scan's physical columns (``None`` when unknown) and the
        dtypes its source knows: the metastore's sampled ones under the
        authoritative ones a columnar footer declares."""
        from repro.io.source_table import session_source

        try:
            source = session_source(args, self.metastore, self.session)
            schema = list(source.schema())
        except Exception:  # noqa: BLE001 - missing file, bad format
            return None, {}
        try:
            meta = source.file_meta()
            dtypes = {name: stats.dtype for name, stats in
                      (meta.columns.items() if meta else ())}
            dtypes.update(getattr(source, "dtypes", dict)())
        except Exception:  # noqa: BLE001 - unreadable entry, bad footer
            dtypes = {}
        return schema, dtypes


def infer_schemas(
    order: Sequence[Node], session=None
) -> Dict[int, NodeSchema]:
    """Schema per node id for a topologically ordered node sequence.

    The canonical entry point for analyzer rules and for
    :mod:`repro.graph.scheduler.estimates`: one forward pass, memoized
    per node, unknown-on-doubt.
    """
    ctx = SchemaContext(session)
    schemas: Dict[int, NodeSchema] = {}
    for node in order:
        schemas[node.id] = infer_schema(node, schemas, ctx)
    return schemas


def infer_schemas_for_roots(
    roots: Sequence[Node], session=None
) -> Dict[int, NodeSchema]:
    return infer_schemas(topological_order(list(roots)), session)


def infer_schema(
    node: Node, schemas: Dict[int, NodeSchema], ctx: SchemaContext
) -> NodeSchema:
    """Transfer one node; raises ``KeyError`` on an uncovered operator
    (the coverage sweep in the tests keeps this total over OPS)."""
    rule = SCHEMA_RULES[node.op]
    inputs = [
        schemas.get(inp.id, NodeSchema.unknown()) for inp in node.inputs
    ]
    try:
        return rule(node, inputs, ctx)
    except Exception:  # noqa: BLE001 - inference must never break a plan
        return NodeSchema.unknown()


def _first(inputs: List[NodeSchema]) -> NodeSchema:
    return inputs[0] if inputs else NodeSchema.unknown()


# -- sources ----------------------------------------------------------------


@schema_rule("scan")
def _scan_schema(node, inputs, ctx) -> NodeSchema:
    columns, dtypes = ctx.scan_facts(node.args)
    if columns is None:
        return NodeSchema.unknown(FRAME)
    if node.args.get("columns") is not None:
        wanted = set(node.args["columns"])
        columns = [c for c in columns if c in wanted]
    for name, spec in (node.args.get("dtype") or {}).items():
        norm = normalize_dtype(spec)
        if norm:
            dtypes[name] = norm
    for name in node.args.get("parse_dates") or ():
        dtypes[name] = "datetime64[ns]"
    return NodeSchema.frame(columns, dtypes)


@schema_rule("from_pandas", "from_data")
def _from_payload_schema(node, inputs, ctx) -> NodeSchema:
    payload = node.args.get("frame")
    if payload is None:
        payload = node.args.get("data")
    if payload is None:
        return NodeSchema.unknown(FRAME)
    if isinstance(payload, dict):
        dtypes = {}
        for name, values in payload.items():
            norm = normalize_dtype(getattr(values, "dtype", None))
            if norm:
                dtypes[name] = norm
        return NodeSchema.frame(list(payload), dtypes)
    columns = getattr(payload, "columns", None)
    if columns is None:
        return NodeSchema.unknown(FRAME)
    raw = getattr(payload, "dtypes", None)
    dtypes = {}
    if isinstance(raw, dict):
        for name, spec in raw.items():
            norm = normalize_dtype(spec)
            if norm:
                dtypes[name] = norm
    return NodeSchema.frame(list(columns), dtypes)


@schema_rule("from_cached", "held")
def _from_cached_schema(node, inputs, ctx) -> NodeSchema:
    # The cached blob is opaque until deserialized; only the value kind
    # recorded at insertion time is known statically (a held value's
    # kind is not recorded at all).
    kind = node.args.get("kind")
    if kind in (FRAME, SERIES, SCALAR):
        return NodeSchema.unknown(kind)
    return NodeSchema.unknown()


# -- row-preserving frame passthrough ---------------------------------------


@schema_rule(
    "identity", "filter", "fillna", "dropna", "sort_values", "sort_index",
    "drop_duplicates", "round", "abs", "head", "tail", "sample",
    "nlargest", "nsmallest",
)
def _passthrough_schema(node, inputs, ctx) -> NodeSchema:
    return _first(inputs)


@schema_rule("getitem_column")
def _getitem_column_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    name = node.args["column"]
    return NodeSchema.series(name, frame.dtype_of(name), index=frame.index)


@schema_rule("getitem_columns")
def _getitem_columns_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    wanted = list(node.args["columns"])
    return NodeSchema.frame(wanted, frame.dtype_map(), index=frame.index)


@schema_rule("setitem")
def _setitem_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    if not frame.known:
        return NodeSchema.unknown(FRAME)
    name = node.args["column"]
    columns = list(frame.columns)
    if name not in columns:
        columns.append(name)
    dtypes = frame.dtype_map()
    dtypes.pop(name, None)
    if len(node.inputs) > 1:
        value_dtype = inputs[1].series_dtype
        if value_dtype:
            dtypes[name] = value_dtype
    else:
        value = node.args.get("value")
        if isinstance(value, bool):
            dtypes[name] = "bool"
        elif isinstance(value, int):
            dtypes[name] = "int64"
        elif isinstance(value, float):
            dtypes[name] = "float64"
        elif isinstance(value, str):
            dtypes[name] = "object"
    return NodeSchema.frame(columns, dtypes, index=frame.index)


@schema_rule("astype")
def _astype_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    spec = node.args.get("dtype")
    if not frame.known or not isinstance(spec, dict):
        return frame
    dtypes = frame.dtype_map()
    for name, target in spec.items():
        norm = normalize_dtype(target)
        if norm:
            dtypes[name] = norm
    return NodeSchema.frame(frame.columns, dtypes, index=frame.index)


@schema_rule("rename")
def _rename_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    if not frame.known:
        return frame
    mapping = node.args.get("columns", {})
    columns = [mapping.get(c, c) for c in frame.columns]
    dtypes = {mapping.get(k, k): v for k, v in frame.dtypes}
    index = tuple(mapping.get(c, c) for c in frame.index)
    return NodeSchema.frame(columns, dtypes, index=index)


@schema_rule("drop")
def _drop_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    if not frame.known:
        return frame
    dropped = set(node.args.get("columns", []))
    columns = [c for c in frame.columns if c not in dropped]
    return NodeSchema.frame(columns, frame.dtype_map(), index=frame.index)


@schema_rule("set_index")
def _set_index_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    if not frame.known:
        return frame
    name = node.args["column"]
    columns = [c for c in frame.columns if c != name]
    return NodeSchema.frame(columns, frame.dtype_map(), index=(name,))


@schema_rule("reset_index")
def _reset_index_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    if not frame.known:
        return NodeSchema.unknown(FRAME)
    if node.args.get("drop"):
        return NodeSchema.frame(frame.columns, frame.dtype_map())
    if frame.kind == SERIES:
        # a reset series becomes a frame of index columns + the values.
        if not frame.index:
            return NodeSchema.unknown(FRAME)
        columns = list(frame.index) + list(frame.columns)
        return NodeSchema.frame(columns, frame.dtype_map())
    if not frame.index:
        # resetting a default range index: pandas adds an "index" column,
        # but an upstream unknown index keeps us honest -> unchanged cols
        # only when we know there is no named index to surface.
        return NodeSchema.frame(frame.columns, frame.dtype_map())
    columns = list(frame.index) + list(frame.columns)
    return NodeSchema.frame(columns, frame.dtype_map())


# -- series operators -------------------------------------------------------


@schema_rule("binop")
def _binop_schema(node, inputs, ctx) -> NodeSchema:
    left = _first(inputs)
    if left.kind == SCALAR:
        return NodeSchema.scalar()
    op = node.args.get("op")
    if op in ("==", "!=", "<", "<=", ">", ">=", "&", "|"):
        return NodeSchema.series(left.series_name, "bool", index=left.index)
    return NodeSchema.series(left.series_name, None, index=left.index)


@schema_rule("unop")
def _unop_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    if base.kind == SCALAR:
        return NodeSchema.scalar()
    dtype = "bool" if node.args.get("op") == "~" else base.series_dtype
    return NodeSchema.series(base.series_name, dtype, index=base.index)


@schema_rule("isin", "between", "isna", "notna")
def _bool_series_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    return NodeSchema.series(base.series_name, "bool", index=base.index)


@schema_rule("str_method")
def _str_method_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    method = node.args.get("method", "")
    dtype = "bool" if method in (
        "contains", "startswith", "endswith", "isdigit", "isalpha",
    ) else "object"
    return NodeSchema.series(base.series_name, dtype, index=base.index)


@schema_rule("dt_field")
def _dt_field_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    dtype = "object" if node.args.get("field") == "date" else "int64"
    return NodeSchema.series(base.series_name, dtype, index=base.index)


@schema_rule("series_fillna", "series_call", "series_map", "round")
def _series_passthrough_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    if base.kind == FRAME:
        return base  # frame-level round shares the "round" op name
    return NodeSchema.series(base.series_name, base.series_dtype,
                             index=base.index)


@schema_rule("series_astype")
def _series_astype_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    dtype = normalize_dtype(node.args.get("dtype"))
    return NodeSchema.series(base.series_name, dtype, index=base.index)


@schema_rule("to_datetime")
def _to_datetime_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    return NodeSchema.series(base.series_name, "datetime64[ns]",
                             index=base.index)


@schema_rule("to_frame_series")
def _to_frame_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    name = node.args.get("name") or base.series_name
    if name is None:
        return NodeSchema.unknown(FRAME)
    dtypes = {}
    if base.series_dtype:
        dtypes[name] = base.series_dtype
    return NodeSchema.frame([name], dtypes, index=base.index)


@schema_rule("value_counts")
def _value_counts_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    return NodeSchema.series(base.series_name, "int64")


@schema_rule("unique")
def _unique_schema(node, inputs, ctx) -> NodeSchema:
    base = _first(inputs)
    return NodeSchema.series(base.series_name, base.series_dtype)


# -- aggregations -----------------------------------------------------------


@schema_rule("series_agg", "series_len", "frame_len", "nunique", "info")
def _scalar_schema(node, inputs, ctx) -> NodeSchema:
    return NodeSchema.scalar()


def _agg_dtype(func, source: Optional[str]) -> Optional[str]:
    """Static dtype of one aggregate output (``source``: its column's)."""
    if func in ("count", "size", "nunique"):
        return "int64"
    if func in ("mean", "std"):
        return "float64"
    return source


@schema_rule("groupby_agg")
def _groupby_agg_schema(node, inputs, ctx) -> NodeSchema:
    column = node.args.get("column")
    source = _first(inputs).dtype_of(column) if column else None
    return NodeSchema.series(column, _agg_dtype(node.args.get("func"), source),
                             index=tuple(node.args.get("keys", ())))


@schema_rule("groupby_agg_multi")
def _groupby_agg_multi_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    keys = list(node.args.get("keys", ()))
    spec = node.args.get("spec")
    if not isinstance(spec, dict):
        return NodeSchema.unknown(FRAME)
    triples = agg_outputs(spec)
    labels = [label for _column, _func, label in triples]
    dtypes = {k: v for k, v in frame.dtypes if k in set(keys)}
    for column, func, label in triples:
        dtype = _agg_dtype(func, frame.dtype_of(column))
        if dtype:
            dtypes[label] = dtype
    if node.args.get("as_index", True):
        return NodeSchema.frame(labels, dtypes, index=tuple(keys))
    # a label that names a key overwrites that key column in place
    return NodeSchema.frame(keys + [c for c in labels if c not in keys],
                            dtypes)


@schema_rule("groupby_size")
def _groupby_size_schema(node, inputs, ctx) -> NodeSchema:
    return NodeSchema.series(None, "int64",
                             index=tuple(node.args.get("keys", ())))


# -- combination ------------------------------------------------------------


def merge_key_columns(node: Node, left_columns=None, right_columns=None
                      ) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """(left keys, right keys) of a merge node by the one key rule
    (:func:`repro.frame.merge.join_keys`); ``(None, None)`` for a natural
    join without both column lists, or for keys the rule rejects."""
    try:
        return join_keys(left_columns, right_columns, **node.args) or (
            None, None)
    except ValueError:
        return None, None


@schema_rule("merge")
def _merge_schema(node, inputs, ctx) -> NodeSchema:
    if len(inputs) < 2 or not inputs[0].known or not inputs[1].known:
        return NodeSchema.unknown(FRAME)
    left, right = inputs[0], inputs[1]
    labels = join_labels(
        left.columns, right.columns,
        join_keys(left.columns, right.columns, **node.args), **node.args)
    dtypes: Dict[str, str] = {}
    for side, name, label in labels:
        dtype = inputs[side].dtype_of(name)
        if dtype:
            dtypes[label] = dtype
    return NodeSchema.frame([label for _s, _n, label in labels], dtypes)


@schema_rule("concat")
def _concat_schema(node, inputs, ctx) -> NodeSchema:
    if node.args.get("shifted"):  # the pieces, then their row counts
        inputs = inputs[:len(inputs) // 2]
    if not inputs or not all(s.known for s in inputs):
        return NodeSchema.unknown(FRAME)
    if all(s.kind == SERIES for s in inputs):
        names = {s.series_name for s in inputs}
        name = names.pop() if len(names) == 1 else None
        return NodeSchema.series(name)
    columns: List[str] = []
    dtypes: Dict[str, str] = {}
    for schema in inputs:
        for name in schema.columns:
            if name not in columns:
                columns.append(name)
            dtype = schema.dtype_of(name)
            if dtype and name not in dtypes:
                dtypes[name] = dtype
    return NodeSchema.frame(columns, dtypes)


# -- shuffle lowering operators ---------------------------------------------
#
# These are optimizer-internal (repro.core.optimizer.partitions emits
# them after the analysis gate runs), but the coverage contract still holds:
# every registered op has a transfer function.


@schema_rule("shuffle_write")
def _shuffle_write_schema(node, inputs, ctx) -> NodeSchema:
    # result is a ShuffleStore holding bucket chunks of the input frame
    # plus the appended row-position column
    frame = _first(inputs)
    if not frame.known or frame.columns is None:
        return NodeSchema.unknown(FRAME)
    pos = node.args.get("pos_name")
    columns = list(frame.columns)
    dtypes = frame.dtype_map()
    if pos and pos not in columns:
        columns.append(pos)
        dtypes[pos] = "int64"
    return NodeSchema.frame(columns, dtypes)


@schema_rule("shuffle_read")
def _shuffle_read_schema(node, inputs, ctx) -> NodeSchema:
    # one bucket of the written frame: same columns, fewer rows
    return _first(inputs)


@schema_rule("compact")
def _compact_schema(node, inputs, ctx) -> NodeSchema:
    # identity rebuild with payload-owning columns
    return _first(inputs)


@schema_rule("partial_agg")
def _partial_agg_schema(node, inputs, ctx) -> NodeSchema:
    frame = _first(inputs)
    keys = [str(k) for k in node.args.get("keys", ())]
    labels = [str(label) for _c, _f, label in node.args.get("pairs", ())]
    dtypes = {k: v for k, v in frame.dtypes if k in set(keys)}
    return NodeSchema.frame(keys + labels, dtypes)


@schema_rule("combine_agg")
def _combine_agg_schema(node, inputs, ctx) -> NodeSchema:
    if node.args.get("kind") == "scalar":
        return NodeSchema.scalar()
    if node.args.get("kind") == "merge":
        frame = _first(inputs)
        if not frame.known or frame.columns is None:
            return NodeSchema.unknown(FRAME)
        drop = set(node.args.get("pos_names", ()))
        columns = [c for c in frame.columns if c not in drop]
        return NodeSchema.frame(columns, frame.dtype_map())
    keys = [str(k) for k in node.args.get("keys", ())]
    labels = [spec["label"] for spec in node.args.get("outputs", ())]
    if node.args.get("output") == "series":
        return NodeSchema.series(node.args.get("name"), None,
                                 index=tuple(keys))
    if node.args.get("as_index", True):
        return NodeSchema.frame(labels, {}, index=tuple(keys))
    return NodeSchema.frame(keys + labels, {})


# -- opaque / effect operators ----------------------------------------------


@schema_rule("describe", "apply")
def _opaque_schema(node, inputs, ctx) -> NodeSchema:
    # Output shape depends on runtime values (UDFs, numeric-column
    # selection): stay unknown rather than guess.
    kind = SERIES if node.op == "apply" else FRAME
    return NodeSchema.unknown(kind)


@schema_rule("print", "to_csv")
def _effect_schema(node, inputs, ctx) -> NodeSchema:
    # Side-effect sinks pass their primary input through untouched.
    return _first(inputs)
