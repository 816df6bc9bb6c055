"""Eager partitioned frame/series of the Modin simulator.

A :class:`ModinFrame` is a list of eager :class:`repro.frame.DataFrame`
row partitions.  Operations execute immediately, partition-parallel on a
thread pool.  Group-by aggregations run the one partial/combine plan of
:mod:`repro.frame.groupby`, eagerly.  There is no spilling: all
partitions are memory-resident, so the simulated budget binds exactly as
it does for pandas (Figure 12's middle column).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.backends.base import BackendUnsupported
from repro.frame import DataFrame, Series, concat
from repro.frame.groupby import (
    GroupBy,
    combine_partials,
    decompose,
    partial_aggregate,
)
from repro.frame.io_csv import read_csv, scan_partitions
from repro.frame.merge import can_broadcast

_POOL = ThreadPoolExecutor(
    max_workers=min(4, os.cpu_count() or 1),
    thread_name_prefix="modin-worker",
)


def _rebuild_pool_after_fork() -> None:
    # A forked child inherits `_POOL` with its worker threads gone --
    # any `_pmap` in the child would enqueue work nobody drains and
    # hang.  Rebuild it so the process-executor's fork-started workers
    # (and any user fork) can run modin partitions.
    global _POOL
    _POOL = ThreadPoolExecutor(
        max_workers=min(4, os.cpu_count() or 1),
        thread_name_prefix="modin-worker",
    )


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_rebuild_pool_after_fork)


def _pmap(func: Callable, items: Sequence) -> List:
    """Parallel map over partitions (exceptions propagate).

    The calling thread's session is re-activated on the pool threads for
    the duration of each call, so buffers the partitions allocate
    register with the *calling* session's memory manager, not the
    process root's.
    """
    if len(items) <= 1:
        return [func(item) for item in items]
    from repro.core.session import current_session

    session = current_session()

    def bound(item):
        session.activate()
        try:
            return func(item)
        finally:
            session.deactivate()

    return list(_POOL.map(bound, items))


def modin_read_csv(
    path: str,
    partition_bytes: int,
    usecols=None,
    dtype=None,
    parse_dates=None,
    index_col: Optional[str] = None,
    compact_strings: bool = True,
) -> "ModinFrame":
    """Partitioned eager CSV read with Arrow-style string compaction."""
    from repro.memory import current_memory_manager

    budget = current_memory_manager().budget
    if budget is not None:
        partition_bytes = min(partition_bytes, max(1 << 12, budget // 24))
    n_partitions = max(1, os.path.getsize(path) // partition_bytes)
    ranges = scan_partitions(path, int(n_partitions))

    def _read(byte_range):
        part = read_csv(
            path,
            usecols=usecols,
            dtype=dtype,
            parse_dates=parse_dates,
            byte_range=byte_range,
        )
        if compact_strings:
            part = _dictionary_encode(part)
        if index_col is not None:
            part = part.set_index(index_col)
        return part

    return ModinFrame(_pmap(_read, ranges))


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


class ModinFrame:
    """Row-partitioned eager dataframe."""

    def __init__(self, partitions: List[DataFrame]):
        if not partitions:
            partitions = [DataFrame({})]
        self.partitions = partitions

    # -- basics --------------------------------------------------------------

    @property
    def npartitions(self) -> int:
        return len(self.partitions)

    @property
    def columns(self) -> List[str]:
        return self.partitions[0].columns

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.partitions)

    def to_pandas(self) -> DataFrame:
        if len(self.partitions) == 1:
            return self.partitions[0]
        return concat(self.partitions)

    def _map(self, func: Callable) -> "ModinFrame":
        return ModinFrame(_pmap(func, self.partitions))

    def _zip_map(self, other_parts: List, func: Callable) -> "ModinFrame":
        pairs = list(zip(self.partitions, other_parts))
        return ModinFrame(_pmap(lambda pair: func(*pair), pairs))

    # -- selection ---------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, str):
            return ModinSeries([p[key] for p in self.partitions], name=key)
        if isinstance(key, list):
            return self._map(lambda p: p[list(key)])
        if isinstance(key, ModinSeries):
            return self._zip_map(key.partitions, lambda p, m: p[m])
        raise BackendUnsupported(f"getitem with {type(key).__name__}")

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "partitions":
            raise AttributeError(name)
        if name in self.partitions[0].columns:
            return self[name]
        raise AttributeError(name)

    def __setitem__(self, name: str, value) -> None:
        """In-place pandas idiom ``df[c] = s`` (eager, per partition)."""
        self.partitions = self.with_column(name, value).partitions

    def with_column(self, name: str, value) -> "ModinFrame":
        if isinstance(value, ModinSeries):
            return self._zip_map(
                value.partitions, lambda p, s: p.with_column(name, s)
            )
        if isinstance(value, Series):
            return self.with_column(name, _split_series(value, self._row_counts()))
        return self._map(lambda p: p.with_column(name, value))

    def _row_counts(self) -> List[int]:
        return [len(p) for p in self.partitions]

    def head(self, n: int = 5) -> DataFrame:
        pieces = []
        have = 0
        for part in self.partitions:
            pieces.append(part.head(n - have))
            have += len(pieces[-1])
            if have >= n:
                break
        return pieces[0] if len(pieces) == 1 else concat(pieces)

    def tail(self, n: int = 5) -> DataFrame:
        return self.to_pandas().tail(n)

    def sample(self, n: int, seed: int = 0) -> "ModinFrame":
        per = max(1, n // max(1, self.npartitions))
        return self._map(lambda p: p.sample(per, seed=seed))

    # -- per-partition transforms -----------------------------------------------------

    def dropna(self, subset=None) -> "ModinFrame":
        return self._map(lambda p: p.dropna(subset=subset))

    def fillna(self, value) -> "ModinFrame":
        return self._map(lambda p: p.fillna(value))

    def astype(self, dtype) -> "ModinFrame":
        return self._map(lambda p: p.astype(dtype))

    def rename(self, columns) -> "ModinFrame":
        return self._map(lambda p: p.rename(columns=columns))

    def drop(self, columns) -> "ModinFrame":
        return self._map(lambda p: p.drop(columns=columns))

    def round(self, decimals: int = 0) -> "ModinFrame":
        return self._map(lambda p: p.round(decimals))

    def set_index(self, column: str) -> "ModinFrame":
        return self._map(lambda p: p.set_index(column))

    def reset_index(self, drop: bool = False) -> "ModinFrame":
        return self._map(lambda p: p.reset_index(drop=drop))

    def apply(self, func, axis: int = 1) -> "ModinSeries":
        return ModinSeries(_pmap(lambda p: p.apply(func, axis=axis), self.partitions))

    def select_dtypes(self, include: str) -> "ModinFrame":
        return self._map(lambda p: p.select_dtypes(include))

    # -- global operators (materialize / repartition) ------------------------------------

    def sort_values(self, by, ascending=True) -> "ModinFrame":
        whole = self.to_pandas().sort_values(by, ascending=ascending)
        return _resplit(whole, self.npartitions)

    def sort_index(self) -> "ModinFrame":
        whole = self.to_pandas().sort_index()
        return _resplit(whole, self.npartitions)

    def drop_duplicates(self, subset=None) -> "ModinFrame":
        partial = self._map(lambda p: p.drop_duplicates(subset=subset))
        whole = partial.to_pandas().drop_duplicates(subset=subset)
        return _resplit(whole, self.npartitions)

    def nlargest(self, n: int, columns) -> "ModinFrame":
        partial = self._map(lambda p: p.nlargest(n, columns))
        return ModinFrame([partial.to_pandas().nlargest(n, columns)])

    def nsmallest(self, n: int, columns) -> "ModinFrame":
        partial = self._map(lambda p: p.nsmallest(n, columns))
        return ModinFrame([partial.to_pandas().nsmallest(n, columns)])

    def describe(self) -> DataFrame:
        return self.to_pandas().describe()

    def merge(self, right, **kwargs) -> "ModinFrame":
        """Partition at a time against the whole right side when the
        broadcast rule (:func:`repro.frame.merge.can_broadcast`) allows
        it, else the whole frame at once."""
        if isinstance(right, DataFrame):
            right_frame = right
        elif isinstance(right, ModinFrame):
            right_frame = right.to_pandas()
        else:
            raise BackendUnsupported(f"merge with {type(right).__name__}")
        if can_broadcast(kwargs.get("how", "inner")):
            return self._map(lambda p: p.merge(right_frame, **kwargs))
        whole = self.to_pandas().merge(right_frame, **kwargs)
        return _resplit(whole, self.npartitions)

    def groupby(self, by, as_index: bool = True) -> "ModinGroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return ModinGroupBy(self, keys, as_index=as_index)

    def to_csv(self, path: str, index: bool = False) -> None:
        self.to_pandas().to_csv(path, index=index)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ModinFrame {len(self)} rows, {self.npartitions} partitions>"


class ModinSeries:
    """Row-partitioned eager series."""

    def __init__(self, partitions: List[Series], name: Optional[str] = None):
        self.partitions = partitions
        self.name = name

    @property
    def npartitions(self) -> int:
        return len(self.partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def to_pandas(self) -> Series:
        if len(self.partitions) == 1:
            return self.partitions[0]
        return concat(self.partitions)

    def _map(self, func: Callable) -> "ModinSeries":
        return ModinSeries(_pmap(func, self.partitions), name=self.name)

    def _zip(self, other, func: Callable) -> "ModinSeries":
        if isinstance(other, ModinSeries):
            pairs = list(zip(self.partitions, other.partitions))
            return ModinSeries(
                _pmap(lambda pair: func(*pair), pairs), name=self.name
            )
        return self._map(lambda p: func(p, other))

    # -- operators -------------------------------------------------------------

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._map(lambda p: other + p)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._map(lambda p: other - p)

    def __mul__(self, other):
        return self._zip(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._map(lambda p: other * p)

    def __truediv__(self, other):
        return self._zip(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._map(lambda p: other / p)

    def __floordiv__(self, other):
        return self._zip(other, lambda a, b: a // b)

    def __mod__(self, other):
        return self._zip(other, lambda a, b: a % b)

    def __eq__(self, other):  # type: ignore[override]
        return self._zip(other, lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return self._zip(other, lambda a, b: a != b)

    def __lt__(self, other):
        return self._zip(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._zip(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._zip(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._zip(other, lambda a, b: a >= b)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._zip(other, lambda a, b: a & b)

    def __or__(self, other):
        return self._zip(other, lambda a, b: a | b)

    def __invert__(self):
        return self._map(lambda p: ~p)

    def __getitem__(self, key):
        if isinstance(key, ModinSeries):
            pairs = list(zip(self.partitions, key.partitions))
            return ModinSeries(
                _pmap(lambda pair: pair[0][pair[1]], pairs), name=self.name
            )
        raise BackendUnsupported("series position indexing")

    def abs(self):
        return self._map(lambda p: p.abs())

    def round(self, decimals: int = 0):
        return self._map(lambda p: p.round(decimals))

    def isin(self, values):
        values = list(values)
        return self._map(lambda p: p.isin(values))

    def between(self, left, right, inclusive: str = "both"):
        return self._map(lambda p: p.between(left, right, inclusive=inclusive))

    def isna(self):
        return self._map(lambda p: p.isna())

    def notna(self):
        return self._map(lambda p: p.notna())

    def fillna(self, value):
        return self._map(lambda p: p.fillna(value))

    def dropna(self):
        return self._map(lambda p: p.dropna())

    def astype(self, dtype):
        return self._map(lambda p: p.astype(dtype))

    def map(self, func):
        return self._map(lambda p: p.map(func))

    apply = map

    @property
    def str(self) -> "ModinStringAccessor":
        return ModinStringAccessor(self)

    @property
    def dt(self) -> "ModinDatetimeAccessor":
        return ModinDatetimeAccessor(self)

    # -- reductions ----------------------------------------------------------------

    def sum(self):
        return sum(p.sum() for p in self.partitions)

    def count(self) -> int:
        return sum(p.count() for p in self.partitions)

    def mean(self):
        total = sum(p.dropna().sum() for p in self.partitions)
        count = self.count()
        return total / count if count else float("nan")

    def min(self):
        values = [p.min() for p in self.partitions if len(p)]
        values = [v for v in values if v is not None]
        return min(values) if values else None

    def max(self):
        values = [p.max() for p in self.partitions if len(p)]
        values = [v for v in values if v is not None]
        return max(values) if values else None

    def nunique(self) -> int:
        return len(self.unique())

    def unique(self) -> np.ndarray:
        uniques: set = set()
        for p in self.partitions:
            uniques.update(p.unique())
        return np.asarray(sorted(uniques, key=str), dtype=object)

    def value_counts(self) -> Series:
        return self.to_pandas().value_counts()

    def head(self, n: int = 5) -> Series:
        return self.to_pandas().head(n)

    def sort_values(self, ascending: bool = True) -> Series:
        return self.to_pandas().sort_values(ascending=ascending)

    def to_frame(self, name=None) -> ModinFrame:
        return ModinFrame([p.to_frame(name) for p in self.partitions])


class ModinStringAccessor:
    """Partition-parallel ``.str``."""

    def __init__(self, series: ModinSeries):
        self._series = series

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def _call(*args, **kwargs):
            return self._series._map(
                lambda p: getattr(p.str, method)(*args, **kwargs)
            )

        return _call


class ModinDatetimeAccessor:
    """Partition-parallel ``.dt``."""

    _FIELDS = (
        "year", "month", "day", "hour", "minute", "second",
        "dayofweek", "weekday", "date", "dayofyear",
    )

    def __init__(self, series: ModinSeries):
        self._series = series

    def __getattr__(self, field: str):
        if field not in self._FIELDS:
            raise AttributeError(field)
        return self._series._map(lambda p: getattr(p.dt, field))


class ModinGroupBy(GroupBy):
    """Eager partial/combine group-by.

    Aggregates each partition independently, concatenates the (small)
    partials, and re-aggregates -- the same plan the Dask simulator
    runs lazily.  Memory stays bounded by the number of groups rather
    than the number of rows, matching real Modin's map-reduce group-by.
    A holistic function has no partials: the whole frame aggregates.
    """

    def aggregate(self, triples, series=None):
        keys = self._keys
        plan = decompose(triples)
        if plan is None:
            whole = self._frame.to_pandas().groupby(keys, self._as_index)
            return whole.aggregate(triples, series)
        pairs, outputs = plan
        partials = _pmap(
            lambda part: partial_aggregate(part, keys, pairs),
            self._frame.partitions,
        )
        return combine_partials(
            concat(partials), keys, outputs,
            as_index=self._as_index, series=series,
        )


def _resplit(frame: DataFrame, npartitions: int) -> ModinFrame:
    n = len(frame)
    npartitions = max(1, min(npartitions, max(1, n)))
    bounds = np.linspace(0, n, npartitions + 1).astype(int)
    return ModinFrame(
        [frame[int(lo):int(hi)] for lo, hi in zip(bounds[:-1], bounds[1:])]
    )


def _split_series(series: Series, counts: List[int]) -> ModinSeries:
    out = []
    offset = 0
    for count in counts:
        out.append(series[offset:offset + count])
        offset += count
    return ModinSeries(out, name=series.name)
