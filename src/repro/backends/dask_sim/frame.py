"""Baseline Dask mode's collections: lists of per-partition nodes.

A :class:`DaskFrame` / :class:`DaskSeries` *is* a Dask collection: one
task-graph node per partition, built by the partition cut's expansion
helpers (:mod:`repro.core.optimizer.partitions`), so a program ported
by hand to the Dask API (the ``dask_body`` variants) runs exactly the
per-partition graph a LaFP plan on the Dask engine is cut into.
``compute()`` runs a ``concat`` over the partitions through the current
session's scheduler with the LaFP passes off; ``persist()`` keeps the
partitions' values on their nodes.

The collections an op builds come from class hooks (``_frame``,
``_series``, ``_map``, ``_scalar``), so baseline Modin mode's
collections (:mod:`repro.backends.modin_sim.frame`) are subclasses
that run each op as it is built.

The API mirrors the eager frame's method names.  Like Dask, a group-by
aggregate, ``value_counts``, ``unique``, ``head`` and ``len`` compute
right away (small results), a scalar reduction stays lazy until
``compute()``, and these raise :class:`BackendUnsupported` (the Dask
limitations section 5.1 reports working around): global
``sort_values`` / ``sort_index``, ``describe``, ``reset_index``,
position-based indexing, ``apply`` without ``meta``, and operands cut
into different partitions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import BackendUnsupported
from repro.core.optimizer.partitions import (
    aggregate,
    blockwise,
    gather,
    join,
    joinable,
    partition_bytes,
    recombine,
    reduce_scalar,
    scan_parts,
)
from repro.frame import DataFrame, Series
from repro.frame.groupby import GroupBy
from repro.frame.merge import join_keys, join_labels
from repro.graph.node import Node


def _run(backend, roots: Sequence[Node]) -> list:
    """Execute ``roots`` on the current session's scheduler, whose
    record becomes the session's last execution stats."""
    from repro.core.session import current_session

    session = current_session()
    scheduler = session.scheduler(backend)
    try:
        return scheduler.execute(list(roots))
    finally:
        session.last_execution_stats = scheduler.last_stats


class DaskCollection:
    """Shared collection plumbing: ``parts`` are the partition nodes."""

    def __init__(self, parts: Sequence[Node], backend):
        self.parts = list(parts)
        self.backend = backend

    @property
    def npartitions(self) -> int:
        return len(self.parts)

    def _blockwise(self, op: str, args: dict, *others: "DaskCollection"):
        """``op`` per partition of this collection and ``others``."""
        inputs = [self.parts] + [other.parts for other in others]
        if len({len(parts) for parts in inputs}) > 1:
            # rows pair up by position: a different cut cannot pair
            raise BackendUnsupported(
                f"{op} over differently cut operands: "
                f"{sorted(len(parts) for parts in inputs)}")
        return blockwise(op, args, inputs)

    def _compute_node(self, node: Node):
        return _run(self.backend, [node])[0]

    def compute(self):
        """Materialize to an eager value (a fresh root over the parts)."""
        root = gather(self.parts)
        if root is self.parts[0]:
            root = Node("identity", [root])
        return self._compute_node(root)

    def persist(self):
        """Compute every partition and keep the values on their nodes."""
        _run(self.backend, self.parts)
        for part in self.parts:
            part.persist = True
        return self

    def __len__(self) -> int:
        op = "frame_len" if isinstance(self, DaskFrame) else "series_len"
        return self._compute_node(reduce_scalar(self.parts, op))

    def head(self, n: int = 5):
        """Eager, like Dask's ``df.head()``."""
        return self._compute_node(recombine(self.parts, "head", {"n": n}))


class DaskFrame(DaskCollection):
    """Lazy partitioned dataframe."""

    def __init__(self, parts: Sequence[Node], backend,
                 columns: Optional[List[str]] = None):
        super().__init__(parts, backend)
        self.columns = columns

    # -- class hooks: the collections an op builds are this class's --------

    def _frame(self, parts, columns=None) -> "DaskFrame":
        return type(self)(parts, self.backend, columns=columns)

    def _series(self, parts, name=None) -> "DaskSeries":
        return DaskSeries(parts, self.backend, name=name)

    def _map(self, op: str, /, **args) -> "DaskFrame":
        """A row-local op that keeps the columns."""
        return self._frame(self._blockwise(op, args), columns=self.columns)

    # -- selection ------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, str):
            return self._series(
                self._blockwise("getitem_column", {"column": key}), name=key)
        if isinstance(key, list):
            return self._frame(
                self._blockwise("getitem_columns", {"columns": list(key)}),
                columns=list(key))
        if isinstance(key, DaskSeries):
            return self._frame(self._blockwise("filter", {}, key),
                               columns=self.columns)
        raise BackendUnsupported(f"getitem with {type(key).__name__}")

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("parts", "backend", "columns"):
            raise AttributeError(name)
        if self.columns is not None and name in self.columns:
            return self[name]
        raise AttributeError(name)

    def __setitem__(self, name: str, value) -> None:
        """In-place pandas idiom ``df[c] = s``: rebinds this wrapper's
        partitions (the nodes themselves stay immutable)."""
        out = self.with_column(name, value)
        self.parts, self.columns = out.parts, out.columns

    def with_column(self, name: str, value) -> "DaskFrame":
        columns = None
        if self.columns is not None:
            columns = self.columns + ([name] if name not in self.columns
                                      else [])
        if isinstance(value, DaskSeries):
            parts = self._blockwise("setitem", {"column": name}, value)
        elif isinstance(value, Series) and self.npartitions > 1:
            # rows pair up by position; the pieces' lengths are not known
            # before they run
            raise BackendUnsupported("eager series onto several partitions")
        else:
            parts = self._blockwise("setitem",
                                    {"column": name, "value": value})
        return self._frame(parts, columns=columns)

    # -- per-partition transforms ------------------------------------------------

    def dropna(self, subset=None) -> "DaskFrame":
        return self._map("dropna", subset=subset)

    def fillna(self, value) -> "DaskFrame":
        return self._map("fillna", value=value)

    def astype(self, dtype) -> "DaskFrame":
        return self._map("astype", dtype=dtype)

    def rename(self, columns) -> "DaskFrame":
        return self._frame(
            self._blockwise("rename", {"columns": columns}),
            columns=None if self.columns is None
            else [columns.get(c, c) for c in self.columns])

    def drop(self, columns) -> "DaskFrame":
        drop_list = [columns] if isinstance(columns, str) else list(columns)
        return self._frame(
            self._blockwise("drop", {"columns": drop_list}),
            columns=None if self.columns is None
            else [c for c in self.columns if c not in set(drop_list)])

    def round(self, decimals: int = 0) -> "DaskFrame":
        return self._map("round", decimals=decimals)

    def set_index(self, column: str) -> "DaskFrame":
        # Per-partition set_index; global order is not guaranteed anyway.
        return self._frame(
            self._blockwise("set_index", {"column": column}),
            columns=[c for c in self.columns if c != column]
            if self.columns else None)

    def sample(self, n: int, seed: int = 0) -> "DaskFrame":
        return self._map("sample", n=n, seed=seed)

    def apply(self, func, axis: int = 1, meta=None):
        if meta is None:
            # Dask requires output metadata for apply (section 3.6).
            raise BackendUnsupported("apply without meta")
        return self._series(self._blockwise("apply",
                                            {"func": func, "axis": axis}))

    # -- tree operators ---------------------------------------------------------------

    def _recombined(self, op: str, **args) -> "DaskFrame":
        return self._frame([recombine(self.parts, op, args)],
                           columns=self.columns)

    def drop_duplicates(self, subset=None) -> "DaskFrame":
        return self._recombined("drop_duplicates", subset=subset)

    def nlargest(self, n: int, columns) -> "DaskFrame":
        return self._recombined("nlargest", n=n, columns=columns)

    def nsmallest(self, n: int, columns) -> "DaskFrame":
        return self._recombined("nsmallest", n=n, columns=columns)

    # -- join & groupby ------------------------------------------------------------------

    def merge(self, right, **kwargs) -> "DaskFrame":
        """A join planned by :mod:`repro.frame.merge`: partition at a time
        against a one-partition right side when the broadcast rule allows
        it, else through the shuffle ops (one store per side)."""
        if isinstance(right, DataFrame):
            right = from_pandas(right, self.backend, npartitions=1)
        keys = join_keys(self.columns, right.columns, **kwargs)
        if keys is None or not joinable(keys):
            raise BackendUnsupported("natural join over unknown columns")
        columns = None
        if self.columns is not None and right.columns is not None:
            columns = [label for _side, _name, label in join_labels(
                self.columns, right.columns, keys, **kwargs)]
        return self._frame(join(self.parts, right.parts, kwargs, keys),
                           columns=columns)

    def groupby(self, by, as_index: bool = True) -> "DaskGroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return DaskGroupBy(self, keys, as_index=as_index)

    # -- unsupported on Dask (trigger pandas fallback) -------------------------------------

    def sort_values(self, by, ascending=True):
        raise BackendUnsupported("sort_values (Dask has no global row order)")

    def sort_index(self):
        raise BackendUnsupported("sort_index")

    def describe(self):
        raise BackendUnsupported("describe")

    def reset_index(self, drop: bool = False):
        raise BackendUnsupported("reset_index")

    @property
    def iloc(self):
        raise BackendUnsupported("iloc (position-based access)")


def _binop_method(symbol: str, reflected: bool = False):
    """``self <symbol> other`` (``other <symbol> self`` if reflected)."""
    def method(self, other):
        return self._binop(other, symbol, reflected)
    return method


def _map_method(op: str, /, **args):
    """``op`` per partition, with fixed ``args``."""
    def method(self):
        return self._map(op, **args)
    return method


def _reduction_method(func: str):
    """``series.<func>()``: per-partition partials and their fold."""
    def method(self):
        return self._scalar(reduce_scalar(self.parts, "series_agg", func))
    return method


class DaskSeries(DaskCollection):
    """Lazy partitioned series."""

    def __init__(self, parts: Sequence[Node], backend,
                 name: Optional[str] = None):
        super().__init__(parts, backend)
        self.name = name

    # -- class hooks: the collections an op builds are this class's --------

    def _map(self, op: str, /, *others: "DaskSeries",
             **args) -> "DaskSeries":
        return type(self)(self._blockwise(op, args, *others), self.backend,
                          name=self.name)

    def _frame(self, parts) -> DaskFrame:
        return DaskFrame(parts, self.backend)

    def _scalar(self, node: Node):
        """A reduction's result: a :class:`DaskScalar`, lazy until
        computed."""
        return DaskScalar(node, self.backend)

    # -- elementwise --------------------------------------------------------

    def _binop(self, other, symbol: str, reflected: bool = False):
        if isinstance(other, DaskSeries):
            return self._map("binop", other, op=symbol, reflected=reflected)
        return self._map("binop", op=symbol, right=other, reflected=reflected)

    __add__, __radd__ = _binop_method("+"), _binop_method("+", True)
    __sub__, __rsub__ = _binop_method("-"), _binop_method("-", True)
    __mul__, __rmul__ = _binop_method("*"), _binop_method("*", True)
    __truediv__ = _binop_method("/")
    __rtruediv__ = _binop_method("/", True)
    __floordiv__, __mod__ = _binop_method("//"), _binop_method("%")
    __eq__, __ne__ = _binop_method("=="), _binop_method("!=")  # type: ignore[assignment]
    __lt__, __le__ = _binop_method("<"), _binop_method("<=")
    __gt__, __ge__ = _binop_method(">"), _binop_method(">=")
    __and__, __or__ = _binop_method("&"), _binop_method("|")
    __hash__ = None  # type: ignore[assignment]

    __invert__, abs = _map_method("unop", op="~"), _map_method("unop", op="abs")
    isna, notna = _map_method("isna"), _map_method("notna")

    def round(self, decimals: int = 0) -> "DaskSeries":
        return self._map("round", decimals=decimals)

    def isin(self, values) -> "DaskSeries":
        return self._map("isin", values=list(values))

    def between(self, left, right, inclusive: str = "both") -> "DaskSeries":
        return self._map("between", left=left, right=right,
                         inclusive=inclusive)

    def fillna(self, value) -> "DaskSeries":
        return self._map("series_fillna", value=value)

    def astype(self, dtype) -> "DaskSeries":
        return self._map("series_astype", dtype=dtype)

    def map(self, func) -> "DaskSeries":
        return self._map("series_map", func=func)

    apply = map

    def __getitem__(self, key):
        if isinstance(key, DaskSeries):
            return self._map("filter", key)
        raise BackendUnsupported("series position indexing")

    @property
    def str(self) -> "DaskStringAccessor":
        return DaskStringAccessor(self)

    @property
    def dt(self) -> "DaskDatetimeAccessor":
        return DaskDatetimeAccessor(self)

    # -- reductions ----------------------------------------------------------

    sum, count = _reduction_method("sum"), _reduction_method("count")
    mean = _reduction_method("mean")
    min, max = _reduction_method("min"), _reduction_method("max")

    def _gathered(self, op: str, **args):
        """Eager: ``op`` over the whole series."""
        return self._compute_node(Node(op, [gather(self.parts)], args))

    def nunique(self) -> int:
        return self._gathered("nunique")

    def unique(self) -> np.ndarray:
        return self._gathered("unique")

    def value_counts(self) -> Series:
        return self._gathered("value_counts")

    def sort_values(self, ascending: bool = True):
        raise BackendUnsupported("sort_values on Dask series")

    def to_frame(self, name=None):
        return self._frame(self._blockwise("to_frame_series",
                                           {"name": name}))


class DaskScalar:
    """Lazy scalar produced by a reduction.  Arithmetic with another
    scalar, lazy or plain, stays lazy: one more ``binop`` node."""

    def __init__(self, node: Node, backend):
        self.node = node
        self.backend = backend

    def compute(self):
        return _run(self.backend, [self.node])[0]

    def __float__(self) -> float:
        return float(self.compute())

    def _binop(self, other, symbol: str, reflected: bool = False):
        if isinstance(other, DaskCollection):
            return NotImplemented
        if isinstance(other, DaskScalar):
            node = Node("binop", [self.node, other.node],
                        {"op": symbol, "reflected": reflected})
        else:
            node = Node("binop", [self.node],
                        {"op": symbol, "right": other, "reflected": reflected})
        return DaskScalar(node, self.backend)

    __add__, __radd__ = _binop_method("+"), _binop_method("+", True)
    __sub__, __rsub__ = _binop_method("-"), _binop_method("-", True)
    __mul__, __rmul__ = _binop_method("*"), _binop_method("*", True)
    __truediv__ = _binop_method("/")
    __rtruediv__ = _binop_method("/", True)


class DaskStringAccessor:
    """Lazy ``.str`` accessor: per-partition string ops."""

    def __init__(self, series: DaskSeries):
        self._series = series

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def _call(*args, **kwargs):
            return self._series._map("str_method", method=method,
                                     args=args, kwargs=kwargs)

        return _call


class DaskDatetimeAccessor:
    """Lazy ``.dt`` accessor: per-partition component extraction."""

    _FIELDS = (
        "year", "month", "day", "hour", "minute", "second",
        "dayofweek", "weekday", "date", "dayofyear",
    )

    def __init__(self, series: DaskSeries):
        self._series = series

    def __getattr__(self, field: str):
        if field not in self._FIELDS:
            raise AttributeError(field)
        return self._series._map("dt_field", field=field)


class DaskGroupBy(GroupBy):
    """Grouped lazy frame: an aggregation is per-partition
    ``partial_agg`` and one ``combine_agg``, computed right away, so
    memory stays bounded by the number of groups, not the number of
    rows; a holistic function hash-shuffles the partitions so each
    group is whole in one bucket.  A holistic aggregate of a key column
    is refused (the pandas fallback)."""

    def aggregate(self, triples, series=None):
        frame = self._frame
        node = aggregate(frame.parts, self._keys, triples, series=series,
                         as_index=self._as_index)
        if node is None:
            raise BackendUnsupported("holistic aggregate of a key column")
        return frame._compute_node(node)


def scan_csv(target_bytes: int, path: str, usecols=None,
             **options) -> Tuple[List[Node], List[str]]:
    """A baseline mode's ``read_csv``: one ``scan`` per partition of the
    session's source (``target_bytes`` each, smaller under a budget),
    and the columns they read."""
    from repro.core.session import current_session
    from repro.io.source_table import session_source

    args = {"format": "csv", "path": path, **options}
    if usecols is not None:
        args["columns"] = list(usecols)
    session = current_session()
    parts = scan_parts(args, session.metastore, partition_bytes(
        target_bytes, session.memory.budget))
    columns = session_source(args, session.metastore, session).schema()
    if usecols is not None:
        keep = set(usecols)
        columns = [c for c in columns if c in keep]
    return parts, columns


def from_pandas(frame: DataFrame, backend,
                npartitions: int = 4) -> DaskFrame:
    """Split an eager frame into a lazy partitioned one."""
    n = len(frame)
    npartitions = max(1, min(npartitions, max(1, n)))
    bounds = np.linspace(0, n, npartitions + 1).astype(int)
    parts = [Node("from_pandas", [], {"frame": frame[int(lo):int(hi)]})
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    return DaskFrame(parts, backend, columns=list(frame.columns))
