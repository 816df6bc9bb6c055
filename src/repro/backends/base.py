"""The one operator dispatch, :meth:`Backend.apply`, over :mod:`repro.frame`.

Every engine computes a node by plain method calls on the eager frames
of :mod:`repro.frame`, so the three backends share this dispatch and
compute the same value for the same node.  They differ in how a plan is
cut before it runs (:attr:`Backend.out_of_core`,
:mod:`repro.core.optimizer.partitions`): that cut is the paper's
per-backend transformation, and its gather of the pieces is the pandas
fallback (section 2.6).  An op the eager frame lacks raises
:class:`BackendUnsupported`.
"""

from __future__ import annotations

import operator
import re
from types import MappingProxyType
from typing import Callable, List, Mapping

from repro.frame import DataFrame, concat, to_datetime
from repro.graph.node import Node
from repro.graph.scheduler.stats import count

#: Escape sequence wrapping a task-graph node id inside an f-string
#: (section 3.3's deferred formatted print), and its pattern.
MARKER = "\x00LAFP:{}\x00"
MARKER_PATTERN = re.compile("\x00LAFP:(\\d+)\x00")

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


class BackendUnsupported(Exception):
    """The eager frame has no implementation of this operator."""


class Backend:
    """An engine: how a plan is cut, and the one dispatch it runs."""

    name = "abstract"
    #: the partition cut policy (:mod:`repro.core.optimizer.shuffle`):
    #: True cuts every plan per partition, so a budgeted run holds a
    #: partition at a time and spills through the shuffle stores; False
    #: cuts only the scans over the size limit that feed a merge or a
    #: group-by, so a plan that fits runs whole.
    out_of_core = False
    #: target bytes of a piece when a plan is cut per partition, before
    #: a memory budget shrinks it
    #: (:func:`repro.core.optimizer.partitions.partition_bytes`).
    partition_bytes = 1 << 20

    def apply(self, node: Node, inputs: List[object]):
        """Execute ``node`` by method calls on its inputs' eager frames."""
        op = node.op
        args = node.args

        if op == "scan":
            # stamped by the pruning pass; a scan cut per partition reads
            # one each, and its first piece carries the source's total
            kept, total = args.get("partitions"), args.get("partitions_total")
            if kept is not None or total is not None:
                count(partitions_read=total if kept is None else len(kept),
                      partitions_total=total or 0)
            return _scan(args)
        if op == "from_data":
            return DataFrame(args["data"])
        if op == "from_pandas":
            return args["frame"]
        if op == "from_cached":
            # a cache-substituted subplan: deserialize the blob into this
            # session (rebuilt buffers charge the consumer's budget)
            from repro.cache.result_cache import deserialize_value

            return deserialize_value(args["blob"])
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
                # a method the eager Series lacks
                raise BackendUnsupported(f"series method {args['method']!r}")
            return method(*args.get("args", ()), **args.get("kwargs", {}))
        if op == "to_datetime":
            return to_datetime(inputs[0])
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
            return concat(inputs)
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
            _execute_print(node, inputs)
            return None
        if op == "to_csv":
            inputs[0].to_csv(args["path"], index=args.get("index", False))
            return None
        if op in ("shuffle_write", "shuffle_read", "partial_agg",
                  "combine_agg", "compact"):
            from repro.backends.shuffle_ops import apply_shuffle_op

            return apply_shuffle_op(node, inputs)

        raise BackendUnsupported(op)


def _scan(args: dict):
    """Execute a ``scan`` node: take the session's source for the args
    (:mod:`repro.io.source_table`), bound to the scan's read options, and
    materialize the selected partitions (projection and folded predicate
    applied inside the source), concatenated.  A plan cut per partition
    reads one partition per ``scan``.
    """
    from repro.core.session import current_session
    from repro.frame.concat import concat_consuming
    from repro.io import Predicate
    from repro.io.source_table import session_source

    # the metastore must match the one the optimizer pruned against:
    # sub-file partition stats change the partition SET (one piece per
    # byte range), so resolving without it would misalign the pruned
    # partition indices.
    session = current_session()
    source = session_source(args, session.metastore, session).bind(args)
    predicate = Predicate.from_arg(args.get("predicate"))
    frames = list(source.scan(
        columns=args.get("columns"),
        predicate=predicate,
        partitions=args.get("partitions"),
    ))
    if not frames:
        return source.empty_frame(args.get("columns"), predicate=predicate)
    if len(frames) == 1:
        return frames[0]
    # partitions are temporaries: release each as the concat consumes it
    return concat_consuming(frames)


def _execute_print(node: Node, inputs: List[object]) -> None:
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
            rendered.append(inputs[segment["index"]])
        elif kind == "fstring":
            def _sub(match):
                index = marker_map[match.group(1)]
                return str(inputs[index])

            rendered.append(MARKER_PATTERN.sub(_sub, segment["value"]))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown print segment kind {kind!r}")
    print(*rendered, sep=node.args.get("sep", " "), end=node.args.get("end", "\n"))
