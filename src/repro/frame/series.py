"""One-dimensional labelled array.

Supports the operations the paper's benchmark programs use on columns:
elementwise arithmetic and comparisons (returning boolean masks for
filtering), aggregations, ``.str`` / ``.dt`` accessors, ``isin``,
``between``, ``value_counts``, ``map``/``apply``, ``sort_values``, and
missing-data handling.

Binary operations are positional: both operands must have equal length
(full index alignment is not needed by any benchmark program and is
documented as out of scope).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.index import Index, RangeIndex, default_index


class Series:
    """A named column with an index."""

    def __init__(self, data, index=None, name: Optional[str] = None, dtype=None):
        if isinstance(data, Column):
            self._column = data if dtype is None else data.astype(dtype)
        else:
            self._column = Column.from_values(data, dtype=dtype)
        if index is None:
            self.index = default_index(len(self._column))
        elif isinstance(index, (Index, RangeIndex)):
            self.index = index
        else:
            self.index = Index(index)
        if len(self.index) != len(self._column):
            raise ValueError(
                f"index length {len(self.index)} != data length {len(self._column)}"
            )
        self.name = name

    # -- basics ------------------------------------------------------------

    @property
    def column(self) -> Column:
        return self._column

    @property
    def values(self) -> np.ndarray:
        return self._column.to_array()

    @property
    def dtype(self):
        return self._column.dtype

    @property
    def nbytes(self) -> int:
        return self._column.nbytes

    def __len__(self) -> int:
        return len(self._column)

    @property
    def shape(self):
        return (len(self),)

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def copy(self) -> "Series":
        return Series(self._column.copy(), index=self.index, name=self.name)

    def rename(self, name: str) -> "Series":
        return Series(self._column, index=self.index, name=name)

    def head(self, n: int = 5) -> "Series":
        return Series(
            self._column.slice(0, n),
            index=_slice_index(self.index, n),
            name=self.name,
        )

    def to_list(self) -> list:
        return list(self.values)

    tolist = to_list

    def astype(self, dtype) -> "Series":
        return Series(self._column.astype(dtype), index=self.index, name=self.name)

    def __iter__(self):
        return iter(self.values)

    # -- elementwise ops -----------------------------------------------------

    def _binary(self, other, op: Callable, out_dtype=None) -> "Series":
        left = self._numeric_or_raw()
        if isinstance(other, Series):
            if len(other) != len(self):
                raise ValueError("length mismatch in binary operation")
            right = other._numeric_or_raw()
        else:
            right = other
        result = op(left, right)
        col = Column.from_values(result, dtype=out_dtype)
        return Series(col, index=self.index, name=self.name)

    def _numeric_or_raw(self) -> np.ndarray:
        col = self._column
        if col.is_category:
            return col.to_array()
        return col.values

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: np.add(b, a))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: np.multiply(b, a))

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: np.divide(b, a))

    def __floordiv__(self, other):
        return self._binary(other, np.floor_divide)

    def __mod__(self, other):
        return self._binary(other, np.mod)

    def __neg__(self):
        return Series(Column(-self._column.values), index=self.index, name=self.name)

    def _compare(self, other, op: Callable) -> "Series":
        left = self._numeric_or_raw()
        if isinstance(other, Series):
            right = other._numeric_or_raw()
        else:
            right = other
        if left.dtype.kind == "M" and isinstance(right, str):
            right = np.datetime64(right)
        result = op(left, right)
        return Series(Column(np.asarray(result, dtype=bool)), index=self.index, name=self.name)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binary(other, np.logical_and, out_dtype="bool")

    def __or__(self, other):
        return self._binary(other, np.logical_or, out_dtype="bool")

    def __invert__(self):
        return Series(
            Column(~np.asarray(self._column.values, dtype=bool)),
            index=self.index,
            name=self.name,
        )

    def abs(self) -> "Series":
        return Series(Column(np.abs(self._column.values)), index=self.index, name=self.name)

    def round(self, decimals: int = 0) -> "Series":
        return Series(
            Column(np.round(self._column.values, decimals)),
            index=self.index,
            name=self.name,
        )

    # -- selection -------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, Series):
            key = np.asarray(key._column.values, dtype=bool)
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return Series(
                self._column.filter(key),
                index=self.index.filter(key),
                name=self.name,
            )
        if isinstance(key, slice):
            return Series(
                self._column.slice(key.start, key.stop, key.step),
                index=Index(self.index.to_array()[key], name=self.index.name),
                name=self.name,
            )
        if isinstance(key, (int, np.integer)):
            return self.values[int(key)]
        raise TypeError(f"unsupported Series key: {key!r}")

    @property
    def iloc(self) -> "_SeriesILoc":
        return _SeriesILoc(self)

    def isin(self, values) -> "Series":
        table = set(values)
        data = self._column.to_array() if self._column.is_category else self._column.values
        mask = np.array([v in table for v in data], dtype=bool)
        return Series(Column(mask), index=self.index, name=self.name)

    def between(self, left, right, inclusive: str = "both") -> "Series":
        vals = self._column.values
        if inclusive == "both":
            mask = (vals >= left) & (vals <= right)
        elif inclusive == "neither":
            mask = (vals > left) & (vals < right)
        elif inclusive == "left":
            mask = (vals >= left) & (vals < right)
        else:
            mask = (vals > left) & (vals <= right)
        return Series(Column(np.asarray(mask, dtype=bool)), index=self.index, name=self.name)

    # -- missing data -------------------------------------------------------------

    def isna(self) -> "Series":
        return Series(Column(self._column.isna()), index=self.index, name=self.name)

    isnull = isna

    def notna(self) -> "Series":
        return Series(Column(~self._column.isna()), index=self.index, name=self.name)

    notnull = notna

    def fillna(self, value) -> "Series":
        return Series(self._column.fillna(value), index=self.index, name=self.name)

    def dropna(self) -> "Series":
        mask = self._column.dropna_mask()
        return self[mask]

    # -- aggregation ------------------------------------------------------------

    def _agg_values(self) -> np.ndarray:
        vals = self._column.values
        if self._column.is_category:
            raise TypeError("cannot aggregate a categorical column numerically")
        if vals.dtype.kind == "f":
            return vals[~np.isnan(vals)]
        return vals

    def sum(self):
        vals = self._agg_values()
        if len(vals) == 0:
            return 0
        return vals.sum().item()

    def mean(self):
        vals = self._agg_values()
        if len(vals) == 0:
            return float("nan")
        if vals.dtype.kind == "M":
            return np.datetime64(int(vals.view("int64").mean()), "ns")
        return float(vals.mean())

    def min(self):
        vals = self._agg_values()
        if len(vals) == 0:
            return None
        out = vals.min()
        return out.item() if vals.dtype.kind in "ifb" else out

    def max(self):
        vals = self._agg_values()
        if len(vals) == 0:
            return None
        out = vals.max()
        return out.item() if vals.dtype.kind in "ifb" else out

    def count(self) -> int:
        return int((~self._column.isna()).sum())

    def std(self):
        vals = self._agg_values()
        if len(vals) < 2:
            return float("nan")
        return float(vals.std(ddof=1))

    def var(self):
        vals = self._agg_values()
        if len(vals) < 2:
            return float("nan")
        return float(vals.var(ddof=1))

    def median(self):
        vals = self._agg_values()
        if len(vals) == 0:
            return float("nan")
        return float(np.median(vals))

    def quantile(self, q: float = 0.5):
        vals = self._agg_values()
        if len(vals) == 0:
            return float("nan")
        return float(np.quantile(vals, q))

    def nunique(self) -> int:
        return self._column.nunique()

    def unique(self) -> np.ndarray:
        return self._column.unique_values()

    def value_counts(self, ascending: bool = False) -> "Series":
        data = self._column.to_array() if self._column.is_category else self._column.values
        keep = ~self._column.isna()
        data = np.asarray(data[keep])
        if data.dtype.kind == "O":
            uniques, counts = np.unique(data.astype(str), return_counts=True)
            uniques = uniques.astype(object)
        else:
            uniques, counts = np.unique(data, return_counts=True)
        order = np.argsort(counts, kind="stable")
        if not ascending:
            order = order[::-1]
        return Series(
            Column(counts[order].astype(np.int64)),
            index=Index(uniques[order], name=self.name),
            name="count",
        )

    def idxmax(self):
        vals = self._column.values
        return self.index.to_array()[int(np.argmax(vals))]

    def idxmin(self):
        vals = self._column.values
        return self.index.to_array()[int(np.argmin(vals))]

    # -- transforms -------------------------------------------------------------

    def map(self, func: Union[Callable, dict]) -> "Series":
        if isinstance(func, dict):
            lookup = func
            func = lambda v: lookup.get(v)  # noqa: E731 - tiny adapter
        data = self._column.to_array() if self._column.is_category else self._column.values
        out = np.array([func(v) for v in data], dtype=object)
        return Series(Column(Column._infer_array(_densify(out))), index=self.index, name=self.name)

    apply = map

    def sort_values(self, ascending: bool = True) -> "Series":
        vals = self._column.values
        order = np.argsort(vals, kind="stable")
        if not ascending:
            order = order[::-1]
        return Series(self._column.take(order), index=self.index.take(order), name=self.name)

    def nlargest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=False).head(n)

    def nsmallest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=True).head(n)

    def reset_index(self, drop: bool = False):
        if drop:
            return Series(self._column, name=self.name)
        from repro.frame.dataframe import DataFrame

        index_name = getattr(self.index, "name", None) or "index"
        return DataFrame(
            {
                index_name: Column.from_values(self.index.to_array()),
                self.name or 0: self._column,
            }
        )

    def to_frame(self, name: Optional[str] = None):
        from repro.frame.dataframe import DataFrame

        return DataFrame({name or self.name or 0: self._column}, index=self.index)

    # -- window / cumulative ops -------------------------------------------------

    def shift(self, periods: int = 1) -> "Series":
        from repro.frame.window import shift

        return shift(self, periods)

    def diff(self, periods: int = 1) -> "Series":
        from repro.frame.window import diff

        return diff(self, periods)

    def cumsum(self) -> "Series":
        from repro.frame.window import cumsum

        return cumsum(self)

    def cummax(self) -> "Series":
        from repro.frame.window import cummax

        return cummax(self)

    def cummin(self) -> "Series":
        from repro.frame.window import cummin

        return cummin(self)

    def rank(self, ascending: bool = True) -> "Series":
        from repro.frame.window import rank

        return rank(self, ascending=ascending)

    def clip(self, lower=None, upper=None) -> "Series":
        from repro.frame.window import clip

        return clip(self, lower, upper)

    def rolling(self, window: int) -> "Rolling":
        from repro.frame.window import Rolling

        return Rolling(self, window)

    # -- accessors ---------------------------------------------------------------

    @property
    def str(self) -> "StringAccessor":
        from repro.frame.strings import StringAccessor

        return StringAccessor(self)

    @property
    def dt(self) -> "DatetimeAccessor":
        from repro.frame.datetimes import DatetimeAccessor

        return DatetimeAccessor(self)

    # -- display -------------------------------------------------------------------

    def __repr__(self) -> str:
        n = len(self)
        shown = min(n, 10)
        idx = self.index.to_array()[:shown]
        vals = self.values[:shown]
        lines = [f"{idx[i]!s:>8}  {vals[i]!s}" for i in range(shown)]
        if n > shown:
            lines.append(f"... ({n - shown} more)")
        lines.append(f"Name: {self.name}, Length: {n}, dtype: {self.dtype}")
        return "\n".join(lines)


class _SeriesILoc:
    """Positional indexer for Series."""

    def __init__(self, series: Series):
        self._series = series

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._series.values[int(key)]
        if isinstance(key, slice):
            return self._series[key]
        indices = np.asarray(key, dtype=np.int64)
        return Series(
            self._series.column.take(indices),
            index=self._series.index.take(indices),
            name=self._series.name,
        )


def _densify(values: np.ndarray) -> np.ndarray:
    """Turn an object array into a typed one when all entries agree."""
    if len(values) == 0:
        return values
    first = values[0]
    if isinstance(first, bool):
        try:
            return values.astype(bool)
        except (TypeError, ValueError):
            return values
    if isinstance(first, (int, np.integer)) and not isinstance(first, bool):
        try:
            return values.astype(np.int64)
        except (TypeError, ValueError):
            return values
    if isinstance(first, (float, np.floating)):
        try:
            return values.astype(np.float64)
        except (TypeError, ValueError):
            return values
    return values


def _slice_index(index, n: int):
    if isinstance(index, RangeIndex):
        return RangeIndex(min(n, index.size))
    return Index(index.to_array()[:n], name=index.name)
