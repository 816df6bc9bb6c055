"""Two-dimensional columnar dataframe.

Eager semantics throughout: each operation materializes a new frame (with
fresh tracked buffers), which is precisely the cost model LaFP's lazy DAG
and column-selection optimizations are designed to reduce.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.index import Index, RangeIndex, default_index
from repro.frame.series import Series


class DataFrame:
    """Ordered mapping of column name -> :class:`Column`, plus a row index."""

    def __init__(self, data=None, index=None, columns: Optional[Sequence[str]] = None):
        self._columns: Dict[str, Column] = {}
        n_rows = None
        if data is None:
            data = {}
        if isinstance(data, DataFrame):
            data = dict(data._columns)
            index = index if index is not None else data and None
        if isinstance(data, dict):
            for name, values in data.items():
                col = self._coerce(values)
                self._columns[str(name)] = col
                n_rows = len(col) if n_rows is None else n_rows
                if len(col) != n_rows:
                    raise ValueError(
                        f"column {name!r} has length {len(col)}, expected {n_rows}"
                    )
        elif isinstance(data, list):
            # list of dict records
            if data and isinstance(data[0], dict):
                keys = list(data[0].keys())
                for key in keys:
                    self._columns[str(key)] = Column.from_values(
                        [record.get(key) for record in data]
                    )
                n_rows = len(data)
            elif not data:
                n_rows = 0
            else:
                raise TypeError("list data must contain dict records")
        else:
            raise TypeError(f"unsupported DataFrame data: {type(data)}")

        if columns is not None:
            self._columns = {
                str(c): self._columns[str(c)] for c in columns
            }
        if n_rows is None:
            n_rows = 0
        if index is None:
            self.index = default_index(n_rows)
        elif isinstance(index, (Index, RangeIndex)):
            self.index = index
        else:
            self.index = Index(index)
        if len(self.index) != n_rows:
            raise ValueError(
                f"index length {len(self.index)} != row count {n_rows}"
            )

    @staticmethod
    def _coerce(values) -> Column:
        if isinstance(values, Column):
            return values
        if isinstance(values, Series):
            return values.column
        return Column.from_values(values)

    @classmethod
    def from_columns(cls, columns: Dict[str, Column], index=None) -> "DataFrame":
        """Internal fast path: adopt prepared columns without copies."""
        frame = cls.__new__(cls)
        frame._columns = dict(columns)
        n_rows = len(next(iter(columns.values()))) if columns else 0
        if index is None:
            frame.index = default_index(n_rows)
        else:
            frame.index = index
        return frame

    # -- shape & metadata -------------------------------------------------

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def shape(self):
        return (len(self.index), len(self._columns))

    def __len__(self) -> int:
        return len(self.index)

    @property
    def empty(self) -> bool:
        return len(self) == 0

    @property
    def dtypes(self) -> Dict[str, object]:
        return {name: col.dtype for name, col in self._columns.items()}

    @property
    def nbytes(self) -> int:
        """Simulated in-memory footprint of all column buffers."""
        return sum(col.nbytes for col in self._columns.values())

    def memory_usage(self) -> Series:
        return Series(
            [col.nbytes for col in self._columns.values()],
            index=Index(np.asarray(self.columns, dtype=object)),
            name="memory",
        )

    def column(self, name: str) -> Column:
        """Direct access to the backing column (internal API)."""
        return self._columns[name]

    # -- selection ---------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, str):
            if key not in self._columns:
                raise KeyError(key)
            return Series(self._columns[key], index=self.index, name=key)
        if isinstance(key, list):
            missing = [k for k in key if k not in self._columns]
            if missing:
                raise KeyError(missing)
            return DataFrame.from_columns(
                {k: self._columns[k] for k in key}, index=self.index
            )
        if isinstance(key, Series):
            key = np.asarray(key.column.values, dtype=bool)
        if isinstance(key, np.ndarray) and key.dtype == bool:
            if len(key) != len(self):
                raise ValueError("boolean mask length mismatch")
            return DataFrame.from_columns(
                {name: col.filter(key) for name, col in self._columns.items()},
                index=self.index.filter(key),
            )
        if isinstance(key, slice):
            return DataFrame.from_columns(
                {
                    name: col.slice(key.start, key.stop, key.step)
                    for name, col in self._columns.items()
                },
                index=Index(self.index.to_array()[key], name=self.index.name),
            )
        raise TypeError(f"unsupported DataFrame key: {key!r}")

    def __setitem__(self, key: str, value) -> None:
        if not isinstance(key, str):
            raise TypeError("column names must be strings")
        if isinstance(value, Series):
            col = value.column
        elif isinstance(value, Column):
            col = value
        elif np.isscalar(value) or value is None:
            n = len(self)
            if isinstance(value, str) or value is None:
                arr = np.full(n, value, dtype=object)
            else:
                arr = np.full(n, value)
            col = Column.from_values(arr)
        else:
            col = Column.from_values(value)
        if len(self._columns) > 0 and len(col) != len(self):
            raise ValueError(
                f"cannot assign column of length {len(col)} to frame of {len(self)} rows"
            )
        if not self._columns:
            self.index = default_index(len(col))
        self._columns[key] = col

    def with_column(self, name: str, value) -> "DataFrame":
        """Copy-on-write column assignment (used by the lazy runtime)."""
        out = DataFrame.from_columns(dict(self._columns), index=self.index)
        out[name] = value
        return out

    def __getattr__(self, name: str):
        # Only called when normal attribute lookup fails: treat as column.
        if name.startswith("_"):
            raise AttributeError(name)
        columns = object.__getattribute__(self, "_columns")
        if name in columns:
            return Series(columns[name], index=self.index, name=name)
        raise AttributeError(f"DataFrame has no attribute or column {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self):
        return iter(self._columns)

    @property
    def loc(self) -> "_Loc":
        return _Loc(self)

    @property
    def iloc(self) -> "_ILoc":
        return _ILoc(self)

    def take(self, indices: np.ndarray) -> "DataFrame":
        indices = np.asarray(indices, dtype=np.int64)
        return DataFrame.from_columns(
            {name: col.take(indices) for name, col in self._columns.items()},
            index=self.index.take(indices),
        )

    def head(self, n: int = 5) -> "DataFrame":
        return self[:n]

    def tail(self, n: int = 5) -> "DataFrame":
        size = len(self)
        return self[max(0, size - n):]

    def sample(self, n: int, seed: int = 0) -> "DataFrame":
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(self), size=min(n, len(self)), replace=False)
        return self.take(np.sort(indices))

    # -- column structure ops ------------------------------------------------

    def copy(self) -> "DataFrame":
        return DataFrame.from_columns(
            {name: col.copy() for name, col in self._columns.items()},
            index=self.index,
        )

    def drop(self, labels=None, columns=None, axis: int = 0) -> "DataFrame":
        if columns is None and axis == 1:
            columns = labels
        if columns is None:
            raise ValueError("only column drops are supported")
        if isinstance(columns, str):
            columns = [columns]
        remaining = {
            name: col for name, col in self._columns.items() if name not in set(columns)
        }
        return DataFrame.from_columns(remaining, index=self.index)

    def rename(self, columns: Dict[str, str]) -> "DataFrame":
        renamed = {
            columns.get(name, name): col for name, col in self._columns.items()
        }
        return DataFrame.from_columns(renamed, index=self.index)

    def assign(self, **new_columns) -> "DataFrame":
        out = DataFrame.from_columns(dict(self._columns), index=self.index)
        for name, value in new_columns.items():
            if callable(value):
                value = value(out)
            out[name] = value
        return out

    def astype(self, dtype) -> "DataFrame":
        """Cast columns; accepts a single dtype or a per-column dict."""
        if isinstance(dtype, dict):
            cols = {
                name: (col.astype(dtype[name]) if name in dtype else col)
                for name, col in self._columns.items()
            }
        else:
            cols = {name: col.astype(dtype) for name, col in self._columns.items()}
        return DataFrame.from_columns(cols, index=self.index)

    def select_dtypes(self, include: str) -> "DataFrame":
        from repro.frame.dtypes import is_numeric

        if include == "number":
            keep = {
                n: c
                for n, c in self._columns.items()
                if not c.is_category and is_numeric(c.values.dtype)
            }
        elif include == "object":
            keep = {
                n: c
                for n, c in self._columns.items()
                if c.is_category or c.values.dtype.kind == "O"
            }
        else:
            raise ValueError(f"unsupported selector {include!r}")
        return DataFrame.from_columns(keep, index=self.index)

    # -- missing data ------------------------------------------------------------

    def dropna(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        names = list(subset) if subset is not None else self.columns
        keep = np.ones(len(self), dtype=bool)
        for name in names:
            keep &= ~self._columns[name].isna()
        return self[keep]

    def fillna(self, value) -> "DataFrame":
        if isinstance(value, dict):
            cols = {
                name: (col.fillna(value[name]) if name in value else col)
                for name, col in self._columns.items()
            }
        else:
            cols = {name: col.fillna(value) for name, col in self._columns.items()}
        return DataFrame.from_columns(cols, index=self.index)

    # -- dedup & sorting ------------------------------------------------------------

    def drop_duplicates(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        names = list(subset) if subset is not None else self.columns
        codes = _row_group_codes(self, names)
        _, first_positions = np.unique(codes, return_index=True)
        return self.take(np.sort(first_positions))

    def duplicated(self, subset: Optional[Sequence[str]] = None) -> Series:
        names = list(subset) if subset is not None else self.columns
        codes = _row_group_codes(self, names)
        _, first_positions = np.unique(codes, return_index=True)
        mask = np.ones(len(self), dtype=bool)
        mask[first_positions] = False
        return Series(Column(mask), index=self.index, name="duplicated")

    def sort_values(
        self,
        by: Union[str, Sequence[str]],
        ascending: Union[bool, Sequence[bool]] = True,
    ) -> "DataFrame":
        return self.take(self._sort_order(by, ascending))

    def _sort_order(
        self,
        by: Union[str, Sequence[str]],
        ascending: Union[bool, Sequence[bool]],
    ) -> np.ndarray:
        """Row positions in ``sort_values`` order."""
        names = [by] if isinstance(by, str) else list(by)
        if isinstance(ascending, bool):
            flags = [ascending] * len(names)
        else:
            flags = list(ascending)
        order = np.arange(len(self), dtype=np.int64)
        # Stable sorts applied from least- to most-significant key.  Keys
        # are factorized to integer codes so descending order is a stable
        # ascending sort on negated codes (works for strings too).
        for name, asc in reversed(list(zip(names, flags))):
            keys = self._columns[name].to_array()[order]
            if keys.dtype.kind == "O":
                keys = keys.astype(str)
            _, codes = np.unique(keys, return_inverse=True)
            if not asc:
                codes = -codes
            order = order[np.argsort(codes, kind="stable")]
        return order

    def sort_index(self) -> "DataFrame":
        labels = self.index.to_array()
        if labels.dtype.kind == "O":
            labels = labels.astype(str)
        return self.take(np.argsort(labels, kind="stable"))

    def nlargest(self, n: int, columns: Union[str, Sequence[str]]) -> "DataFrame":
        """``sort_values(columns, ascending=False).head(n)``, copying only
        the ``n`` rows kept."""
        return self.take(self._sort_order(columns, False)[:n])

    def nsmallest(self, n: int, columns: Union[str, Sequence[str]]) -> "DataFrame":
        return self.take(self._sort_order(columns, True)[:n])

    # -- index ---------------------------------------------------------------------

    def reset_index(self, drop: bool = False) -> "DataFrame":
        if drop:
            return DataFrame.from_columns(dict(self._columns))
        name = getattr(self.index, "name", None) or "index"
        cols = {name: Column.from_values(self.index.to_array())}
        cols.update(self._columns)
        return DataFrame.from_columns(cols)

    def set_index(self, name: str) -> "DataFrame":
        col = self._columns[name]
        remaining = {k: v for k, v in self._columns.items() if k != name}
        return DataFrame.from_columns(
            remaining, index=Index(col.to_array(), name=name)
        )

    # -- combination ------------------------------------------------------------------

    def merge(self, right: "DataFrame", **kwargs) -> "DataFrame":
        from repro.frame.merge import merge as _merge

        return _merge(self, right, **kwargs)

    def groupby(self, by: Union[str, Sequence[str]], as_index: bool = True):
        from repro.frame.groupby import GroupBy

        names = [by] if isinstance(by, str) else list(by)
        missing = [k for k in names if k not in self._columns]
        if missing:
            raise KeyError(missing)
        return GroupBy(self, names, as_index=as_index)

    # -- rowwise apply -------------------------------------------------------------------

    def apply(self, func: Callable, axis: int = 1) -> Series:
        """Row-wise apply. ``func`` receives a plain dict per row.

        Deliberately slow (Python loop) -- matching the pandas behaviour the
        paper's UDF discussion assumes.
        """
        if axis != 1:
            raise ValueError("only axis=1 apply is supported")
        arrays = {name: col.to_array() for name, col in self._columns.items()}
        out = [
            func({name: arrays[name][i] for name in arrays})
            for i in range(len(self))
        ]
        return Series(out, index=self.index, name=None)

    def itertuples(self) -> Iterable:
        arrays = {name: col.to_array() for name, col in self._columns.items()}
        names = list(arrays)
        for i in range(len(self)):
            yield tuple(arrays[n][i] for n in names)

    # -- summaries ---------------------------------------------------------------------

    def describe(self) -> "DataFrame":
        """Summary stats for numeric columns (count/mean/std/min/max)."""
        from repro.frame.dtypes import is_numeric

        stats = ["count", "mean", "std", "min", "max"]
        out: Dict[str, Column] = {}
        for name, col in self._columns.items():
            if col.is_category or not is_numeric(col.values.dtype):
                continue
            series = Series(col, name=name)
            out[name] = Column.from_values(
                [
                    float(series.count()),
                    series.mean(),
                    series.std(),
                    float(series.min()),
                    float(series.max()),
                ]
            )
        return DataFrame.from_columns(out, index=Index(np.asarray(stats, dtype=object)))

    def info(self) -> str:
        """Compact schema description (returned, not printed)."""
        lines = [f"DataFrame: {len(self)} rows x {len(self._columns)} columns"]
        for name, col in self._columns.items():
            na = int(col.isna().sum())
            lines.append(f"  {name}: {col.dtype} (non-null {len(col) - na})")
        lines.append(f"memory: {self.nbytes} bytes (simulated)")
        return "\n".join(lines)

    def sum(self) -> Series:
        from repro.frame.dtypes import is_numeric

        names = [
            n
            for n, c in self._columns.items()
            if not c.is_category and is_numeric(c.values.dtype)
        ]
        return Series(
            [Series(self._columns[n]).sum() for n in names],
            index=Index(np.asarray(names, dtype=object)),
            name="sum",
        )

    def mean(self) -> Series:
        from repro.frame.dtypes import is_numeric

        names = [
            n
            for n, c in self._columns.items()
            if not c.is_category and is_numeric(c.values.dtype)
        ]
        return Series(
            [Series(self._columns[n]).mean() for n in names],
            index=Index(np.asarray(names, dtype=object)),
            name="mean",
        )

    def count(self) -> Series:
        return Series(
            [Series(col).count() for col in self._columns.values()],
            index=Index(np.asarray(self.columns, dtype=object)),
            name="count",
        )

    def melt(self, id_vars, value_vars=None, var_name: str = "variable",
             value_name: str = "value") -> "DataFrame":
        from repro.frame.reshape import melt

        return melt(self, id_vars, value_vars, var_name, value_name)

    def pivot_table(self, values: str, index: str, columns: str,
                    aggfunc: str = "mean") -> "DataFrame":
        from repro.frame.reshape import pivot_table

        return pivot_table(self, values, index, columns, aggfunc)

    # -- IO ----------------------------------------------------------------------------

    def to_csv(self, path: str, index: bool = False) -> None:
        from repro.frame.io_csv import write_csv

        write_csv(self, path, index=index)

    def to_dict(self, orient: str = "list") -> dict:
        if orient != "list":
            raise ValueError("only orient='list' is supported")
        return {name: list(col.to_array()) for name, col in self._columns.items()}

    # -- display ------------------------------------------------------------------------

    def __repr__(self) -> str:
        n = len(self)
        shown = min(n, 10)
        names = self.columns
        header = "  ".join(f"{name:>12}" for name in names)
        arrays = [self._columns[n_].to_array()[:shown] for n_ in names]
        idx = self.index.to_array()[:shown]
        rows = []
        for i in range(shown):
            cells = "  ".join(f"{str(a[i]):>12}" for a in arrays)
            rows.append(f"{idx[i]!s:>6}  {cells}")
        footer = f"[{n} rows x {len(names)} columns]"
        return "\n".join([f"{'':>6}  {header}", *rows, footer])


class _ILoc:
    """Positional row indexer."""

    def __init__(self, frame: DataFrame):
        self._frame = frame

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = int(key)
            if i < 0:
                i += len(self._frame)
            return {
                name: col.to_array()[i]
                for name, col in self._frame._columns.items()
            }
        if isinstance(key, slice):
            return self._frame[key]
        return self._frame.take(np.asarray(key, dtype=np.int64))


class _Loc:
    """Label/mask row indexer (boolean masks and label equality)."""

    def __init__(self, frame: DataFrame):
        self._frame = frame

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            rows, cols = key
            selected = self._frame[rows] if not _is_all_slice(rows) else self._frame
            if isinstance(cols, str):
                return selected[cols]
            return selected[list(cols)]
        if isinstance(key, (Series, np.ndarray)):
            return self._frame[key]
        raise TypeError(f"unsupported loc key: {key!r}")


def _is_all_slice(key) -> bool:
    return isinstance(key, slice) and key.start is None and key.stop is None


def _row_group_codes(frame: DataFrame, names: Sequence[str]) -> np.ndarray:
    """Integer code per row identifying the tuple of values in ``names``.

    Shared by drop_duplicates, duplicated and groupby.
    """
    combined = np.zeros(len(frame), dtype=np.int64)
    multiplier = 1
    for name in names:
        col = frame.column(name)
        if col.is_category:
            codes = col.values.astype(np.int64)
            n_vals = len(col.categories) + 1
            codes = codes + 1  # shift NA_CODE (-1) to 0
        else:
            values = col.values
            if values.dtype.kind == "O":
                values = values.astype(str)
            uniques, codes = np.unique(values, return_inverse=True)
            n_vals = len(uniques)
        combined = combined * n_vals + codes
        multiplier *= n_vals
        if multiplier > 2**62:
            # Re-factorize to keep codes in range for very wide keys.
            _, combined = np.unique(combined, return_inverse=True)
            multiplier = int(combined.max()) + 1 if len(combined) else 1
    return combined
