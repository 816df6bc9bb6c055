"""Backend protocol and the generic operator dispatch.

A backend supplies frame-like objects that implement the eager frame API
(:mod:`repro.frame`'s method names).  :func:`apply_generic` executes most
operators by plain method calls on those objects, so the three backends
share one dispatch table; a backend overrides only what differs
(``scan`` partitioning, unsupported ops).

When a backend raises :class:`BackendUnsupported`, the caller converts the
inputs to eager frames, runs the operation there, and converts the result
back -- the paper's transparent pandas-fallback (section 2.6).
"""

from __future__ import annotations

import operator
import re
from types import MappingProxyType
from typing import Callable, List, Mapping

from repro.graph.node import Node
from repro.graph.scheduler.stats import count

#: Escape sequence wrapping a task-graph node id inside an f-string
#: (section 3.3's deferred formatted print), and its pattern.
MARKER = "\x00LAFP:{}\x00"
MARKER_PATTERN = re.compile("\x00LAFP:(\\d+)\x00")


class BackendUnsupported(Exception):
    """The backend has no native implementation of this operator."""


class Backend:
    """Base class for execution backends."""

    name = "abstract"
    #: target bytes of a piece when a plan is cut per partition, before
    #: a memory budget shrinks it
    #: (:func:`repro.core.optimizer.partitions.partition_bytes`).
    partition_bytes = 1 << 20

    # -- frame construction ----------------------------------------------

    def scan(self, args: dict):
        """Execute a ``scan`` node: take the session's source for the
        args (:mod:`repro.io.source_table`), bound to the scan's read
        options, and materialize the selected partitions (projection and
        folded predicate applied inside the source), concatenated.  A
        plan cut per partition reads one partition per ``scan``.
        """
        from repro.core.session import current_session
        from repro.frame.concat import concat_consuming
        from repro.io import Predicate
        from repro.io.source_table import session_source

        # the metastore must match the one the optimizer pruned against:
        # sub-file partition stats change the partition SET (one piece
        # per byte range), so resolving without it would misalign the
        # pruned partition indices.
        session = current_session()
        source = session_source(args, session.metastore, session).bind(args)
        predicate = Predicate.from_arg(args.get("predicate"))
        frames = list(source.scan(
            columns=args.get("columns"),
            predicate=predicate,
            partitions=args.get("partitions"),
        ))
        if not frames:
            return self.from_pandas(
                source.empty_frame(args.get("columns"), predicate=predicate)
            )
        if len(frames) == 1:
            return self.from_pandas(frames[0])
        # partitions are temporaries: release each as the concat consumes it
        return self.from_pandas(concat_consuming(frames))

    def from_data(self, data, **kwargs):
        raise NotImplementedError

    def from_pandas(self, frame):
        """Wrap an eager frame into this backend's representation."""
        return frame

    def to_datetime(self, series):
        raise BackendUnsupported("to_datetime")

    def concat(self, frames):
        raise BackendUnsupported("concat")

    # -- execution ----------------------------------------------------------

    def apply(self, node: Node, inputs: List[object]):
        """Execute one node; default generic dispatch with pandas fallback."""
        try:
            return apply_generic(self, node, inputs)
        except BackendUnsupported:
            return self._fallback(node, inputs)

    def _fallback(self, node: Node, inputs: List[object]):
        """Convert to pandas, run there, convert back (section 2.6)."""
        from repro.backends.pandas_backend import PandasBackend

        eager_inputs = [self.materialize(v) for v in inputs]
        result = apply_generic(PandasBackend(), node, eager_inputs)
        return self.from_pandas(result) if _is_framelike(result) else result

    # -- materialization -------------------------------------------------------

    def materialize(self, value):
        """Force a backend value to an eager frame / series / scalar."""
        return value

    def persist(self, value):
        """Keep a computed value resident for reuse (section 3.5)."""
        return value


def _is_framelike(value) -> bool:
    from repro.frame import DataFrame, Series

    return isinstance(value, (DataFrame, Series))


# ---------------------------------------------------------------------------
# Generic operator dispatch.
# ---------------------------------------------------------------------------

_BINOPS: Mapping[str, Callable] = MappingProxyType({
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&": operator.and_,
    "|": operator.or_,
})


def apply_generic(backend: Backend, node: Node, inputs: List[object]):
    """Execute ``node`` by method calls on the backend's frame objects."""
    op = node.op
    args = node.args

    if op == "scan":
        # stamped by the pruning pass; a scan cut per partition reads
        # one each, and its first piece carries the source's total
        kept, total = args.get("partitions"), args.get("partitions_total")
        if kept is not None or total is not None:
            count(partitions_read=total if kept is None else len(kept),
                  partitions_total=total or 0)
        return backend.scan(args)
    if op == "from_data":
        return backend.from_data(args["data"])
    if op == "from_pandas":
        return backend.from_pandas(args["frame"])
    if op == "from_cached":
        # a cache-substituted subplan: deserialize the blob into this
        # session (rebuilt buffers charge the consumer's budget) and
        # adopt it like a shipped/imported frame.
        from repro.cache.result_cache import deserialize_value

        value = deserialize_value(args["blob"])
        return backend.from_pandas(value) if _is_framelike(value) else value
    if op == "identity":
        return inputs[0]
    if op == "getitem_column":
        return inputs[0][args["column"]]
    if op == "getitem_columns":
        return inputs[0][list(args["columns"])]
    if op == "filter":
        return inputs[0][inputs[1]]
    if op == "setitem":
        value = inputs[1] if len(inputs) > 1 else args["value"]
        return inputs[0].with_column(args["column"], value)
    if op == "binop":
        left = inputs[0]
        right = inputs[1] if len(inputs) > 1 else args["right"]
        if args.get("reflected"):
            left, right = right, left
        return _BINOPS[args["op"]](left, right)
    if op == "unop":
        kind = args["op"]
        if kind == "~":
            return ~inputs[0]
        if kind == "-":
            return -inputs[0]
        if kind == "abs":
            return inputs[0].abs()
        raise ValueError(f"unknown unop {kind!r}")
    if op == "str_method":
        method = getattr(inputs[0].str, args["method"])
        extra = [inputs[i] for i in range(1, len(inputs))]
        return method(*args.get("args", ()), *extra, **args.get("kwargs", {}))
    if op == "dt_field":
        return getattr(inputs[0].dt, args["field"])
    if op == "isin":
        return inputs[0].isin(args["values"])
    if op == "between":
        return inputs[0].between(
            args["left"], args["right"], inclusive=args.get("inclusive", "both")
        )
    if op == "isna":
        return inputs[0].isna()
    if op == "notna":
        return inputs[0].notna()
    if op in ("series_fillna", "fillna"):
        return inputs[0].fillna(args["value"])
    if op in ("series_astype", "astype"):
        return inputs[0].astype(args["dtype"])
    if op == "series_map":
        return inputs[0].map(args["func"])
    if op == "series_call":
        method = getattr(inputs[0], args["method"], None)
        if method is None:
            # window ops need global row order: partitioned backends fall
            # back to pandas via the standard conversion path.
            raise BackendUnsupported(f"series method {args['method']!r}")
        return method(*args.get("args", ()), **args.get("kwargs", {}))
    if op == "to_datetime":
        return backend.to_datetime(inputs[0])
    if op == "dropna":
        return inputs[0].dropna(subset=args.get("subset"))
    if op == "rename":
        return inputs[0].rename(columns=args["columns"])
    if op == "drop":
        return inputs[0].drop(columns=args["columns"])
    if op == "sort_values":
        if args.get("by") is None:  # series sort
            return inputs[0].sort_values(ascending=args.get("ascending", True))
        return inputs[0].sort_values(args["by"], ascending=args.get("ascending", True))
    if op == "to_frame_series":
        return inputs[0].to_frame(args.get("name"))
    if op == "sort_index":
        return inputs[0].sort_index()
    if op == "drop_duplicates":
        return inputs[0].drop_duplicates(subset=args.get("subset"))
    if op == "round":
        return inputs[0].round(args.get("decimals", 0))
    if op == "abs":
        return inputs[0].abs()
    if op == "groupby_agg":
        grouped = inputs[0].groupby(args["keys"])
        return getattr(grouped[args["column"]], args["func"])()
    if op == "groupby_agg_multi":
        grouped = inputs[0].groupby(args["keys"], as_index=args.get("as_index", True))
        return grouped.agg(args["spec"])
    if op == "groupby_size":
        return inputs[0].groupby(args["keys"]).size()
    if op == "merge":
        return inputs[0].merge(inputs[1], **args)
    if op == "concat":
        if args.get("shifted"):
            # the pieces' results, then each piece's row count
            from repro.frame.concat import concat_shifted

            half = len(inputs) // 2
            return concat_shifted(inputs[:half], inputs[half:])
        return backend.concat(inputs)
    if op == "head":
        return inputs[0].head(args.get("n", 5))
    if op == "tail":
        return inputs[0].tail(args.get("n", 5))
    if op == "nlargest":
        return inputs[0].nlargest(args["n"], args["columns"])
    if op == "nsmallest":
        return inputs[0].nsmallest(args["n"], args["columns"])
    if op == "describe":
        return inputs[0].describe()
    if op == "info":
        return inputs[0].info()
    if op == "value_counts":
        return inputs[0].value_counts()
    if op == "series_agg":
        return getattr(inputs[0], args["func"])()
    if op in ("series_len", "frame_len"):
        return len(inputs[0])
    if op == "nunique":
        return inputs[0].nunique()
    if op == "unique":
        return inputs[0].unique()
    if op == "reset_index":
        return inputs[0].reset_index(drop=args.get("drop", False))
    if op == "set_index":
        return inputs[0].set_index(args["column"])
    if op == "apply":
        return inputs[0].apply(args["func"], axis=args.get("axis", 1))
    if op == "sample":
        return inputs[0].sample(args["n"], seed=args.get("seed", 0))
    if op == "print":
        _execute_print(backend, node, inputs)
        return None
    if op == "to_csv":
        frame = backend.materialize(inputs[0])
        frame.to_csv(args["path"], index=args.get("index", False))
        return None
    if op in ("shuffle_write", "shuffle_read", "partial_agg",
              "combine_agg", "compact"):
        from repro.backends.shuffle_ops import apply_shuffle_op

        return apply_shuffle_op(backend, node, inputs)

    raise BackendUnsupported(op)


def _execute_print(backend: Backend, node: Node, inputs: List[object]) -> None:
    """Run a lazy print node (section 3.3).

    ``segments`` describe the original print arguments; f-strings carry
    escape markers naming the node ids whose values they embed, resolved
    via ``marker_map`` (node id -> input position).
    """
    marker_map = node.args.get("marker_map", {})
    rendered = []
    for segment in node.args.get("segments", []):
        kind = segment["kind"]
        if kind == "literal":
            rendered.append(segment["value"])
        elif kind == "node":
            rendered.append(backend.materialize(inputs[segment["index"]]))
        elif kind == "fstring":
            def _sub(match):
                index = marker_map[match.group(1)]
                return str(backend.materialize(inputs[index]))

            rendered.append(MARKER_PATTERN.sub(_sub, segment["value"]))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown print segment kind {kind!r}")
    print(*rendered, sep=node.args.get("sep", " "), end=node.args.get("end", "\n"))
