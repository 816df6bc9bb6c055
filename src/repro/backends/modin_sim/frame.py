"""Baseline Modin mode's collections: Dask's, run as each op is built.

A :class:`ModinFrame` / :class:`ModinSeries` is a
:class:`~repro.backends.dask_sim.frame.DaskFrame` / ``DaskSeries``
whose new pieces run the moment the collection is built, on the
current session's scheduler (:func:`repro.backends.dask_sim.frame._run`)
-- eager, partitioned, and unable to optimize across ops.  Each computed
piece is held in a fresh leaf node and the nodes that computed it drop
their results, so a frame the program lets go frees its pieces.
Reductions, like group-by aggregates, return values.

Where Modin differs from Dask: ``sort_values``, ``sort_index``,
``reset_index`` and ``apply`` without ``meta`` run on the gathered
frame as one piece, ``describe`` and ``tail`` return its eager result,
and a merge runs per piece against the gathered right side when the
broadcast rule (:func:`repro.frame.merge.can_broadcast`) allows, else
on the whole frame.  There is no spilling: every piece is resident, so
the simulated budget binds as it does for pandas (Figure 12's middle
column).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.dask_sim.frame import DaskFrame, DaskSeries, _run, scan_csv
from repro.core.optimizer.partitions import gather
from repro.frame import DataFrame
from repro.frame.merge import can_broadcast
from repro.graph.node import Node


def _leaf(value) -> Node:
    """``value`` held in a fresh leaf, which keeps no upstream node alive."""
    node = Node("from_pandas", [], {"frame": value})
    node.set_result(value)
    node.persist = True
    return node


def _eager(parts: Sequence[Node], backend) -> List[Node]:
    """Run ``parts`` now; each value in a fresh leaf, the nodes that ran
    keep nothing."""
    if all(part.computed and not part.inputs for part in parts):
        return list(parts)  # leaves already
    values = _run(backend, parts)
    for part in parts:
        part.clear_result()
    return [_leaf(value) for value in values]


def modin_read_csv(
    path: str,
    partition_bytes: int,
    usecols=None,
    dtype=None,
    parse_dates=None,
    index_col: Optional[str] = None,
    compact_strings: bool = True,
) -> "ModinFrame":
    """Partitioned eager CSV read with Arrow-style string compaction:
    baseline Dask mode's scans, run and encoded one piece at a time."""
    from repro.backends.modin_backend import ModinBackend

    backend = ModinBackend(partition_bytes)
    scans, _columns = scan_csv(backend, path, usecols, dtype=dtype,
                               parse_dates=parse_dates)

    def read(scan: Node) -> Node:
        value = _run(backend, [scan])[0]
        scan.clear_result()
        return _leaf(_dictionary_encode(value) if compact_strings else value)

    frame = ModinFrame([read(scan) for scan in scans], backend)
    return frame if index_col is None else frame.set_index(index_col)


def _dictionary_encode(frame: DataFrame) -> DataFrame:
    """Encode repetitive object columns as categories (the Arrow model).

    Arrow only dictionary-encodes when the dictionary pays for itself;
    high-cardinality columns (IDs, free text) stay as plain strings.
    """
    out = {}
    for name in frame.columns:
        col = frame.column(name)
        if (
            not col.is_category
            and col.values.dtype.kind == "O"
            and len(col) > 0
            and col.nunique() <= 0.5 * len(col)
        ):
            out[name] = col.astype("category")
        else:
            out[name] = col
    return DataFrame.from_columns(out, index=frame.index)


class _Eager:
    """What an eager collection adds to Dask's."""

    @property
    def partitions(self) -> list:
        """The pieces' values."""
        return [part.result for part in self.parts]

    def to_pandas(self):
        return self.compute()


class ModinFrame(_Eager, DaskFrame):
    """Row-partitioned eager dataframe."""

    def __init__(self, parts: Sequence[Node], backend, columns=None):
        # the computed pieces name the columns; ``columns`` is what
        # Dask's ops derive before anything runs
        parts = _eager(parts, backend)
        super().__init__(parts, backend,
                         columns=list(parts[0].result.columns))

    def _series(self, parts, name=None) -> "ModinSeries":
        return ModinSeries(parts, self.backend, name=name)

    def _whole(self, op: str, **args) -> Node:
        """``op`` on the gathered frame."""
        return Node(op, [gather(self.parts)], args)

    def sort_values(self, by, ascending=True) -> "ModinFrame":
        return self._frame([self._whole("sort_values", by=by,
                                        ascending=ascending)])

    def sort_index(self) -> "ModinFrame":
        return self._frame([self._whole("sort_index")])

    def reset_index(self, drop: bool = False) -> "ModinFrame":
        return self._frame([self._whole("reset_index", drop=drop)])

    def describe(self) -> DataFrame:
        return self._compute_node(self._whole("describe"))

    def tail(self, n: int = 5) -> DataFrame:
        return self._compute_node(self._whole("tail", n=n))

    def apply(self, func, axis: int = 1, meta=None) -> "ModinSeries":
        if meta is not None:
            return super().apply(func, axis=axis, meta=meta)
        return self._series([self._whole("apply", func=func, axis=axis)])

    def merge(self, right, **kwargs) -> "ModinFrame":
        """Piece at a time against the gathered right side when the
        broadcast rule allows it, else the whole frame at once."""
        whole = (_leaf(right) if isinstance(right, DataFrame)
                 else gather(right.parts))
        lefts = (self.parts if can_broadcast(kwargs.get("how", "inner"))
                 else [gather(self.parts)])
        return self._frame([Node("merge", [left, whole], dict(kwargs))
                            for left in lefts])

    def to_csv(self, path: str, index: bool = False) -> None:
        self.to_pandas().to_csv(path, index=index)


class ModinSeries(_Eager, DaskSeries):
    """Row-partitioned eager series."""

    def __init__(self, parts: Sequence[Node], backend,
                 name: Optional[str] = None):
        super().__init__(_eager(parts, backend), backend, name=name)

    def _frame(self, parts) -> ModinFrame:
        return ModinFrame(parts, self.backend)

    def _scalar(self, node: Node):
        return self._compute_node(node)

    def sort_values(self, ascending: bool = True):
        return self._gathered("sort_values", ascending=ascending)
