"""Lazy frame/series/scalar wrappers of the Dask simulator.

These mirror the eager frame API (method names and semantics) so the
generic operator dispatch in :mod:`repro.backends.base` drives them
unchanged.  Methods build :class:`~repro.backends.dask_sim.expr.Expr`
nodes; ``compute()`` runs the evaluator.

Deliberately unsupported (raise :class:`BackendUnsupported`, triggering
the pandas-fallback conversion the paper describes): global
``sort_values`` / ``sort_index``, ``describe``, ``reset_index``,
position-based indexing, and ``apply`` without an explicit ``meta`` --
matching the Dask limitations section 5.1 reports working around.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backends.base import BackendUnsupported
from repro.backends.dask_sim.compute import Evaluator
from repro.backends.dask_sim.expr import (
    Expr,
    blockwise_expr,
    head_expr,
    merge_broadcast_expr,
    merge_shuffle_expr,
    tree_expr,
)
from repro.frame import DataFrame, Series
from repro.frame.groupby import (
    GroupBy,
    combine_partials,
    decompose,
    partial_aggregate,
)
from repro.frame.merge import can_broadcast, join_keys, join_labels


class DaskCollection:
    """Shared lazy-collection plumbing."""

    def __init__(self, expr: Expr, evaluator: Evaluator):
        self.expr = expr
        self.evaluator = evaluator

    @property
    def npartitions(self) -> int:
        return self.expr.npartitions

    def compute(self):
        """Materialize to an eager value."""
        return self.evaluator.materialize(self.expr)

    def __len__(self) -> int:
        total = 0
        for i in range(self.expr.npartitions):
            total += len(self.evaluator.eval_partition(self.expr, i))
        return total

    def head(self, n: int = 5):
        """Eager, like Dask's ``df.head()`` (reads only leading partitions)."""
        return self.evaluator.eval_partition(head_expr(self.expr, n), 0)


class DaskFrame(DaskCollection):
    """Lazy partitioned dataframe."""

    def __init__(self, expr: Expr, evaluator: Evaluator, columns: Optional[List[str]] = None):
        super().__init__(expr, evaluator)
        self.columns = columns

    def _frame(self, expr: Expr, columns=None) -> "DaskFrame":
        return DaskFrame(expr, self.evaluator, columns=columns)

    def _series(self, expr: Expr, name=None) -> "DaskSeries":
        return DaskSeries(expr, self.evaluator, name=name)

    def persist(self) -> "DaskFrame":
        return self._frame(self.evaluator.persist(self.expr), columns=self.columns)

    # -- selection ------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, str):
            expr = blockwise_expr(
                lambda parts, p: parts[0][p["col"]],
                [self.expr],
                f"getitem[{key}]",
                {"col": key},
            )
            return self._series(expr, name=key)
        if isinstance(key, list):
            expr = blockwise_expr(
                lambda parts, p: parts[0][list(p["cols"])],
                [self.expr],
                f"project{key}",
                {"cols": list(key)},
            )
            return self._frame(expr, columns=list(key))
        if isinstance(key, DaskSeries):
            expr = blockwise_expr(
                lambda parts, p: parts[0][parts[1]],
                [self.expr, key.expr],
                "filter",
            )
            return self._frame(expr, columns=self.columns)
        raise BackendUnsupported(f"getitem with {type(key).__name__}")

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("expr", "evaluator", "columns"):
            raise AttributeError(name)
        if self.columns is not None and name in self.columns:
            return self[name]
        raise AttributeError(name)

    def __setitem__(self, name: str, value) -> None:
        """In-place pandas idiom ``df[c] = s``: rebinds this wrapper's
        expression (the expressions themselves stay immutable)."""
        out = self.with_column(name, value)
        self.expr = out.expr
        self.columns = out.columns

    def with_column(self, name: str, value) -> "DaskFrame":
        columns = None
        if self.columns is not None:
            columns = self.columns + ([name] if name not in self.columns else [])
        if isinstance(value, DaskSeries):
            expr = blockwise_expr(
                lambda parts, p: parts[0].with_column(p["name"], parts[1]),
                [self.expr, value.expr],
                f"setitem[{name}]",
                {"name": name},
            )
        elif isinstance(value, Series) and self.npartitions > 1:
            # rows pair up by position; the pieces' lengths are not known
            # before they run
            raise BackendUnsupported("eager series onto several partitions")
        else:
            expr = blockwise_expr(
                lambda parts, p: parts[0].with_column(p["name"], p["value"]),
                [self.expr],
                f"setitem[{name}]",
                {"name": name, "value": value},
            )
        return self._frame(expr, columns=columns)

    # -- per-partition transforms ------------------------------------------------

    def _blockwise_frame(self, method: str, desc: str, /, **kwargs) -> "DaskFrame":
        expr = blockwise_expr(
            lambda parts, p: getattr(parts[0], p["m"])(**p["kw"]),
            [self.expr],
            desc,
            {"m": method, "kw": kwargs},
        )
        return self._frame(expr, columns=self.columns)

    def dropna(self, subset=None) -> "DaskFrame":
        return self._blockwise_frame("dropna", "dropna", subset=subset)

    def fillna(self, value) -> "DaskFrame":
        return self._blockwise_frame("fillna", "fillna", value=value)

    def astype(self, dtype) -> "DaskFrame":
        return self._blockwise_frame("astype", "astype", dtype=dtype)

    def rename(self, columns) -> "DaskFrame":
        out = self._blockwise_frame("rename", "rename", columns=columns)
        if self.columns is not None:
            out.columns = [columns.get(c, c) for c in self.columns]
        return out

    def drop(self, columns) -> "DaskFrame":
        drop_list = [columns] if isinstance(columns, str) else list(columns)
        out = self._blockwise_frame("drop", "drop", columns=drop_list)
        if self.columns is not None:
            out.columns = [c for c in self.columns if c not in set(drop_list)]
        return out

    def round(self, decimals: int = 0) -> "DaskFrame":
        return self._blockwise_frame("round", "round", decimals=decimals)

    def set_index(self, column: str) -> "DaskFrame":
        # Per-partition set_index; global order is not guaranteed anyway.
        expr = blockwise_expr(
            lambda parts, p: parts[0].set_index(p["col"]),
            [self.expr],
            f"set_index[{column}]",
            {"col": column},
        )
        cols = [c for c in self.columns if c != column] if self.columns else None
        return self._frame(expr, columns=cols)

    def sample(self, n: int, seed: int = 0) -> "DaskFrame":
        expr = blockwise_expr(
            lambda parts, p: parts[0].sample(p["n"], seed=p["seed"]),
            [self.expr],
            "sample",
            {"n": n, "seed": seed},
        )
        return self._frame(expr, columns=self.columns)

    def apply(self, func, axis: int = 1, meta=None):
        if meta is None:
            # Dask requires output metadata for apply (section 3.6).
            raise BackendUnsupported("apply without meta")
        expr = blockwise_expr(
            lambda parts, p: parts[0].apply(p["func"], axis=p["axis"]),
            [self.expr],
            "apply",
            {"func": func, "axis": axis},
        )
        return DaskSeries(expr, self.evaluator)

    # -- tree operators ---------------------------------------------------------------

    def drop_duplicates(self, subset=None) -> "DaskFrame":
        expr = tree_expr(
            self.expr,
            lambda part: part.drop_duplicates(subset=subset),
            lambda combined: combined.drop_duplicates(subset=subset),
            "drop_duplicates",
        )
        return self._frame(expr, columns=self.columns)

    def nlargest(self, n: int, columns) -> "DaskFrame":
        expr = tree_expr(
            self.expr,
            lambda part: part.nlargest(n, columns),
            lambda combined: combined.nlargest(n, columns),
            "nlargest",
        )
        return self._frame(expr, columns=self.columns)

    def nsmallest(self, n: int, columns) -> "DaskFrame":
        expr = tree_expr(
            self.expr,
            lambda part: part.nsmallest(n, columns),
            lambda combined: combined.nsmallest(n, columns),
            "nsmallest",
        )
        return self._frame(expr, columns=self.columns)

    # -- join & groupby ------------------------------------------------------------------

    def merge(self, right, **kwargs) -> "DaskFrame":
        """A join planned by :mod:`repro.frame.merge`: partition at a time
        against a one-partition right side when the broadcast rule allows
        it, else one partition from the shared shuffle kernels."""
        if isinstance(right, DataFrame):
            right = from_pandas(right, self.evaluator, npartitions=1)
        keys = join_keys(self.columns, right.columns, **kwargs)
        if keys is None:
            raise BackendUnsupported("natural join over unknown columns")
        columns = None
        if self.columns is not None and right.columns is not None:
            columns = [label for _side, _name, label in join_labels(
                self.columns, right.columns, keys, **kwargs)]
        if right.npartitions == 1 and can_broadcast(kwargs.get("how", "inner")):
            expr = merge_broadcast_expr(self.expr, right.expr, kwargs)
        else:
            nbuckets = max(self.npartitions, right.npartitions)
            expr = merge_shuffle_expr(
                self.expr, right.expr, kwargs, keys, nbuckets)
        return self._frame(expr, columns=columns)

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


class DaskSeries(DaskCollection):
    """Lazy partitioned series."""

    def __init__(self, expr: Expr, evaluator: Evaluator, name: Optional[str] = None):
        super().__init__(expr, evaluator)
        self.name = name

    def _series(self, expr: Expr, name=None) -> "DaskSeries":
        return DaskSeries(expr, self.evaluator, name=name or self.name)

    def persist(self) -> "DaskSeries":
        return self._series(self.evaluator.persist(self.expr))

    # -- elementwise --------------------------------------------------------

    def _binop(self, other, symbol: str, reflected: bool = False) -> "DaskSeries":
        import operator as _op

        table = {
            "+": _op.add, "-": _op.sub, "*": _op.mul, "/": _op.truediv,
            "//": _op.floordiv, "%": _op.mod, "==": _op.eq, "!=": _op.ne,
            "<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
            "&": _op.and_, "|": _op.or_,
        }
        func = table[symbol]
        if isinstance(other, DaskSeries):
            expr = blockwise_expr(
                lambda parts, p: (
                    p["f"](parts[1], parts[0]) if p["r"] else p["f"](parts[0], parts[1])
                ),
                [self.expr, other.expr],
                f"binop[{symbol}]",
                {"f": func, "r": reflected},
            )
        else:
            expr = blockwise_expr(
                lambda parts, p: (
                    p["f"](p["v"], parts[0]) if p["r"] else p["f"](parts[0], p["v"])
                ),
                [self.expr],
                f"binop[{symbol}]",
                {"f": func, "v": other, "r": reflected},
            )
        return self._series(expr)

    def __add__(self, other):
        return self._binop(other, "+")

    def __radd__(self, other):
        return self._binop(other, "+", reflected=True)

    def __sub__(self, other):
        return self._binop(other, "-")

    def __rsub__(self, other):
        return self._binop(other, "-", reflected=True)

    def __mul__(self, other):
        return self._binop(other, "*")

    def __rmul__(self, other):
        return self._binop(other, "*", reflected=True)

    def __truediv__(self, other):
        return self._binop(other, "/")

    def __rtruediv__(self, other):
        return self._binop(other, "/", reflected=True)

    def __floordiv__(self, other):
        return self._binop(other, "//")

    def __mod__(self, other):
        return self._binop(other, "%")

    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, "!=")

    def __lt__(self, other):
        return self._binop(other, "<")

    def __le__(self, other):
        return self._binop(other, "<=")

    def __gt__(self, other):
        return self._binop(other, ">")

    def __ge__(self, other):
        return self._binop(other, ">=")

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binop(other, "&")

    def __or__(self, other):
        return self._binop(other, "|")

    def __invert__(self) -> "DaskSeries":
        expr = blockwise_expr(lambda parts, p: ~parts[0], [self.expr], "invert")
        return self._series(expr)

    def _blockwise(self, desc: str, func, **bparams) -> "DaskSeries":
        expr = blockwise_expr(func, [self.expr], desc, bparams)
        return self._series(expr)

    def abs(self) -> "DaskSeries":
        return self._blockwise("abs", lambda parts, p: parts[0].abs())

    def round(self, decimals: int = 0) -> "DaskSeries":
        return self._blockwise(
            "round", lambda parts, p: parts[0].round(p["d"]), d=decimals
        )

    def isin(self, values) -> "DaskSeries":
        return self._blockwise(
            "isin", lambda parts, p: parts[0].isin(p["v"]), v=list(values)
        )

    def between(self, left, right, inclusive: str = "both") -> "DaskSeries":
        return self._blockwise(
            "between",
            lambda parts, p: parts[0].between(p["l"], p["r"], inclusive=p["i"]),
            l=left, r=right, i=inclusive,
        )

    def isna(self) -> "DaskSeries":
        return self._blockwise("isna", lambda parts, p: parts[0].isna())

    def notna(self) -> "DaskSeries":
        return self._blockwise("notna", lambda parts, p: parts[0].notna())

    def fillna(self, value) -> "DaskSeries":
        return self._blockwise(
            "fillna", lambda parts, p: parts[0].fillna(p["v"]), v=value
        )

    def astype(self, dtype) -> "DaskSeries":
        return self._blockwise(
            "astype", lambda parts, p: parts[0].astype(p["d"]), d=dtype
        )

    def map(self, func) -> "DaskSeries":
        return self._blockwise(
            "map", lambda parts, p: parts[0].map(p["f"]), f=func
        )

    apply = map

    def dropna(self) -> "DaskSeries":
        return self._blockwise("dropna", lambda parts, p: parts[0].dropna())

    def __getitem__(self, key):
        if isinstance(key, DaskSeries):
            expr = blockwise_expr(
                lambda parts, p: parts[0][parts[1]],
                [self.expr, key.expr],
                "filter",
            )
            return self._series(expr)
        raise BackendUnsupported("series position indexing")

    @property
    def str(self) -> "DaskStringAccessor":
        return DaskStringAccessor(self)

    @property
    def dt(self) -> "DaskDatetimeAccessor":
        return DaskDatetimeAccessor(self)

    # -- reductions ----------------------------------------------------------

    def _reduction(self, partial_cols: dict, finalize) -> "DaskScalar":
        """Tree-reduce: per-partition partials -> combine -> scalar."""
        def _map(part: Series) -> DataFrame:
            return DataFrame({k: [f(part)] for k, f in partial_cols.items()})

        expr = tree_expr(self.expr, _map, finalize, "reduction")
        return DaskScalar(expr, self.evaluator)

    def sum(self) -> "DaskScalar":
        return self._reduction(
            {"s": lambda p: p.sum()}, lambda c: c["s"].sum()
        )

    def count(self) -> "DaskScalar":
        return self._reduction(
            {"c": lambda p: p.count()}, lambda c: int(c["c"].sum())
        )

    def mean(self) -> "DaskScalar":
        return self._reduction(
            {"s": lambda p: p.dropna().sum(), "c": lambda p: p.count()},
            lambda c: c["s"].sum() / c["c"].sum() if c["c"].sum() else float("nan"),
        )

    def min(self) -> "DaskScalar":
        return self._reduction(
            {"m": lambda p: p.min()}, lambda c: c["m"].dropna().min()
        )

    def max(self) -> "DaskScalar":
        return self._reduction(
            {"m": lambda p: p.max()}, lambda c: c["m"].dropna().max()
        )

    def nunique(self) -> int:
        return len(self.unique())

    def unique(self) -> np.ndarray:
        uniques: set = set()
        for i in range(self.npartitions):
            part = self.evaluator.eval_partition(self.expr, i)
            uniques.update(part.unique())
        return np.asarray(sorted(uniques, key=str), dtype=object)

    def value_counts(self) -> Series:
        """Eagerly computed (tree) -- matches Dask's small-result behaviour."""
        def _map(part: Series) -> DataFrame:
            counts = part.value_counts()
            return DataFrame(
                {"value": counts.index.to_array(), "n": counts.values}
            )

        def _combine(combined: DataFrame) -> Series:
            total = combined.groupby("value")["n"].sum()
            return total.sort_values(ascending=False).rename("count")

        expr = tree_expr(self.expr, _map, _combine, "value_counts")
        return self.evaluator.eval_partition(expr, 0)

    def sort_values(self, ascending: bool = True):
        raise BackendUnsupported("sort_values on Dask series")

    def to_frame(self, name=None):
        expr = blockwise_expr(
            lambda parts, p: parts[0].to_frame(p["n"]),
            [self.expr],
            "to_frame",
            {"n": name},
        )
        return DaskFrame(expr, self.evaluator)


class DaskScalar:
    """Lazy scalar produced by a reduction."""

    def __init__(self, expr: Expr, evaluator: Evaluator):
        self.expr = expr
        self.evaluator = evaluator

    def compute(self):
        return self.evaluator.eval_partition(self.expr, 0)

    def __float__(self) -> float:
        return float(self.compute())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DaskScalar {self.expr!r}>"


class DaskStringAccessor:
    """Lazy ``.str`` accessor: per-partition string ops."""

    def __init__(self, series: DaskSeries):
        self._series = series

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def _call(*args, **kwargs):
            expr = blockwise_expr(
                lambda parts, p: getattr(parts[0].str, p["m"])(*p["a"], **p["k"]),
                [self._series.expr],
                f"str.{method}",
                {"m": method, "a": args, "k": kwargs},
            )
            return DaskSeries(expr, self._series.evaluator, name=self._series.name)

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
        expr = blockwise_expr(
            lambda parts, p: getattr(parts[0].dt, p["f"]),
            [self._series.expr],
            f"dt.{field}",
            {"f": field},
        )
        return DaskSeries(expr, self._series.evaluator, name=self._series.name)


class DaskGroupBy(GroupBy):
    """Grouped lazy frame: an aggregation tree-reduces across partitions
    -- :func:`~repro.frame.groupby.partial_aggregate` per partition, one
    :func:`~repro.frame.groupby.combine_partials` -- so memory stays
    bounded by the number of groups, not the number of rows.  A holistic
    function has no partials and is refused (the pandas fallback)."""

    def aggregate(self, triples, series=None):
        plan = decompose(triples)
        if plan is None:
            raise BackendUnsupported("holistic groupby aggregate on Dask")
        pairs, outputs = plan
        keys, as_index = self._keys, self._as_index
        expr = tree_expr(
            self._frame.expr,
            lambda part: partial_aggregate(part, keys, pairs),
            lambda stacked: combine_partials(
                stacked, keys, outputs, as_index=as_index, series=series
            ),
            "groupby.agg",
        )
        return self._frame.evaluator.eval_partition(expr, 0)


def from_pandas(frame: DataFrame, evaluator: Evaluator, npartitions: int = 4) -> DaskFrame:
    """Split an eager frame into a lazy partitioned one."""
    from repro.backends.dask_sim.expr import materialized_expr

    n = len(frame)
    npartitions = max(1, min(npartitions, max(1, n)))
    bounds = np.linspace(0, n, npartitions + 1).astype(int)
    handles = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        handles.append(evaluator.store.put(frame[int(lo):int(hi)]))
    return DaskFrame(
        materialized_expr(handles), evaluator, columns=list(frame.columns)
    )
