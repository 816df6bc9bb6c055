"""Group-by aggregation.

Implements the split-apply-combine subset the benchmark programs use:

- ``df.groupby(keys)[col].sum()/mean()/count()/min()/max()`` -> Series,
- ``df.groupby(keys).agg({col: fn, ...})`` -> DataFrame,
- ``df.groupby(keys).size()`` -> Series.

Grouping factorizes the key tuple to dense codes (see
:func:`repro.frame.dataframe._row_group_codes`) and aggregates with
``np.bincount`` / ``ufunc.at`` -- no Python-level loops over rows.

This module also owns the *aggregate plan*: how a spec becomes output
columns (:func:`agg_outputs`), how those split into per-partition
partials (:func:`decompose`, :func:`partial_aggregate`) and how stacked
partials re-aggregate (:func:`combine_partials`).  The partitioned
backends and the shuffle lowering call these; the whole-frame
:meth:`GroupBy.aggregate` is the reference they must reproduce.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frame.column import Column, value_codes
from repro.frame.dataframe import DataFrame, _row_group_codes
from repro.frame.index import Index
from repro.frame.series import Series

_AGG_NAMES = ("sum", "mean", "count", "min", "max", "size", "std", "first", "nunique")

#: one output column of an aggregation: (source column, func, label)
Triple = Tuple[str, str, str]

#: the function that re-aggregates each function's per-partition
#: partials.  ``mean`` is the sum partial over the count partial; a
#: function absent here (``std``, ``nunique``) is holistic.
_COMBINE_BY = MappingProxyType({
    "sum": "sum", "count": "sum", "size": "sum",
    "min": "min", "max": "max", "first": "first",
})


def agg_outputs(spec: Dict[str, Union[str, Sequence[str]]]) -> List[Triple]:
    """The label rule: one ``(column, func, label)`` per output column
    of ``{column: func | [funcs]}``, in output order.  A column under
    one function keeps its name; under several, ``{column}_{func}``."""
    triples: List[Triple] = []
    for column, funcs in spec.items():
        func_list = [funcs] if isinstance(funcs, str) else list(funcs)
        for func in func_list:
            label = column if len(func_list) == 1 else f"{column}_{func}"
            triples.append((column, func, label))
    return triples


def decompose(triples: Sequence[Triple]) -> Optional[Tuple[List[Triple], List[dict]]]:
    """Split aggregates across partitions, or ``None`` when a function
    is holistic.

    Returns ``(pairs, outputs)``: :func:`partial_aggregate` computes
    ``pairs`` per partition and :func:`combine_partials` folds the
    stacked partials into ``outputs`` -- the arguments of the
    ``partial_agg`` / ``combine_agg`` operators.  Partial labels are
    positional (``__lafp{i}_{func}``), so they collide neither with the
    keys nor with each other whatever the spec aggregates.
    """
    pairs: List[Triple] = []
    outputs: List[dict] = []
    for i, (column, func, label) in enumerate(triples):
        if func == "mean":
            sum_label, count_label = f"__lafp{i}_sum", f"__lafp{i}_count"
            pairs.append((column, "sum", sum_label))
            pairs.append((column, "count", count_label))
            outputs.append({"label": label, "mode": "mean",
                            "sum": sum_label, "count": count_label})
        elif func in _COMBINE_BY:
            partial = f"__lafp{i}_{func}"
            pairs.append((column, func, partial))
            outputs.append({"label": label, "mode": "direct",
                            "partial": partial, "func": _COMBINE_BY[func]})
        else:
            return None
    return pairs, outputs


class GroupBy:
    """Grouped view of a frame; aggregation methods trigger computation.

    Every public aggregation reduces to :meth:`aggregate`.  The
    partitioned backends subclass this over their own frame type and
    override only that method (``DataFrame.groupby`` checks the keys;
    a lazy frame's column list is only a hint).
    """

    def __init__(self, frame, keys: Sequence[str], as_index: bool = True):
        self._frame = frame
        self._keys = list(keys)
        self._as_index = as_index
        self._codes = None

    # -- factorization -----------------------------------------------------

    def _factorize(self):
        """Dense group codes over non-NA-key rows (pandas drops NA keys).

        Returns ``(codes, first_positions, n_groups)`` where ``codes`` is
        -1 for rows whose key contains NA.
        """
        if self._codes is None:
            valid = np.ones(len(self._frame), dtype=bool)
            for key in self._keys:
                valid &= ~self._frame.column(key).isna()
            raw = _row_group_codes(self._frame, self._keys)
            uniques, dense = np.unique(raw[valid], return_inverse=True)
            codes = np.full(len(self._frame), -1, dtype=np.int64)
            codes[valid] = dense
            positions = np.nonzero(valid)[0]
            first_positions = positions[
                np.unique(dense, return_index=True)[1]
            ]
            self._codes = codes
            self._first_positions = first_positions
            self._n_groups = len(uniques)
        return self._codes, self._first_positions, self._n_groups

    def _key_columns(self) -> Dict[str, Column]:
        _, first, _ = self._factorize()
        return {
            name: self._frame.column(name).take(first) for name in self._keys
        }

    def _key_index(self) -> Index:
        """Index of group-key values (tuples joined for multi-key)."""
        key_cols = self._key_columns()
        if len(self._keys) == 1:
            values = key_cols[self._keys[0]].to_array()
            return Index(values, name=self._keys[0])
        arrays = [key_cols[k].to_array().astype(str) for k in self._keys]
        labels = np.array(
            ["|".join(parts) for parts in zip(*arrays)], dtype=object
        )
        return Index(labels, name="|".join(self._keys))

    def _wrap(self, cols: Dict[str, Column], series: Optional[str]):
        """Per-group columns as the result: a Series named ``series``
        (one column), else a frame indexed by the keys or -- under
        ``as_index=False`` -- led by them as columns."""
        if series is not None:
            (column,) = cols.values()
            return Series(column, index=self._key_index(), name=series)
        if self._as_index:
            return DataFrame.from_columns(cols, index=self._key_index())
        out = dict(self._key_columns())
        out.update(cols)
        return DataFrame.from_columns(out)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self, triples: Sequence[Triple], series: Optional[str] = None):
        """Compute ``(column, func, label)`` outputs over the whole frame."""
        codes, _, n_groups = self._factorize()
        cols = {
            label: Column.from_values(
                _aggregate(self._frame.column(column), codes, n_groups, func)
            )
            for column, func, label in triples
        }
        return self._wrap(cols, series)

    def size(self) -> Series:
        return self.aggregate([(self._keys[0], "size", "size")], series="size")

    def agg(self, spec: Dict[str, Union[str, Sequence[str]]]) -> DataFrame:
        """Aggregate several columns at once; returns key cols + agg cols."""
        return self.aggregate(agg_outputs(spec))

    def __getitem__(self, key: Union[str, List[str]]):
        if isinstance(key, str):
            return SeriesGroupBy(self, key)
        return FrameGroupBy(self, list(key))

    def __getattr__(self, name: str):
        if name in _AGG_NAMES:
            def _apply_all(*args, **kwargs):
                numeric = [
                    c
                    for c in self._frame.columns
                    if c not in self._keys
                ]
                return self.agg({c: name for c in numeric})

            return _apply_all
        raise AttributeError(name)


class SeriesGroupBy:
    """``df.groupby(keys)[col]`` -- single-column aggregation target."""

    def __init__(self, parent: GroupBy, column: str):
        self._parent = parent
        self._column = column

    def _agg(self, func: str) -> Series:
        return self._parent.aggregate(
            [(self._column, func, self._column)], series=self._column
        )

    def sum(self) -> Series:
        return self._agg("sum")

    def mean(self) -> Series:
        return self._agg("mean")

    def count(self) -> Series:
        return self._agg("count")

    def min(self) -> Series:
        return self._agg("min")

    def max(self) -> Series:
        return self._agg("max")

    def std(self) -> Series:
        return self._agg("std")

    def size(self) -> Series:
        return self._agg("size")

    def first(self) -> Series:
        return self._agg("first")

    def nunique(self) -> Series:
        return self._agg("nunique")

    def agg(self, func: str) -> Series:
        return self._agg(func)


class FrameGroupBy:
    """``df.groupby(keys)[[c1, c2]]`` -- multi-column aggregation target."""

    def __init__(self, parent: GroupBy, columns: List[str]):
        self._parent = parent
        self._columns = columns

    def _agg_all(self, func: str) -> DataFrame:
        return self._parent.agg({c: func for c in self._columns})

    def sum(self) -> DataFrame:
        return self._agg_all("sum")

    def mean(self) -> DataFrame:
        return self._agg_all("mean")

    def count(self) -> DataFrame:
        return self._agg_all("count")

    def min(self) -> DataFrame:
        return self._agg_all("min")

    def max(self) -> DataFrame:
        return self._agg_all("max")

    def agg(self, spec) -> DataFrame:
        if isinstance(spec, str):
            return self._agg_all(spec)
        return self._parent.agg(spec)


def partial_aggregate(
    frame: DataFrame, keys: Sequence[str], pairs: Sequence[Triple]
) -> DataFrame:
    """One shuffle/partial-aggregation step: group ``frame`` by ``keys``
    and emit the key columns as data plus one labeled column per
    ``(column, func, label)`` pair.

    This is the kernel behind the ``partial_agg`` operator: applied
    per scan partition with decomposed functions (then re-aggregated by
    ``combine_agg``), or per shuffle bucket with the final functions
    (each group lives entirely in one bucket, so the result is exact).
    """
    return GroupBy(frame, keys, as_index=False).aggregate(pairs)


def combine_partials(
    stacked: DataFrame,
    keys: Sequence[str],
    outputs: Sequence[dict],
    as_index: bool = True,
    series: Optional[str] = None,
):
    """Re-aggregate stacked partials into the final Series / DataFrame.

    Grouping the stacked partial frame reproduces the canonical group
    order of the in-memory path (per-column rank codes are a monotone
    transform, so lexicographic key order is frame-independent).
    """
    gb = GroupBy(stacked, keys, as_index=as_index)
    codes, _, n_groups = gb._factorize()
    cols = {}
    for spec in outputs:
        if spec.get("mode") == "mean":
            sums = _aggregate(
                stacked.column(spec["sum"]), codes, n_groups, "sum"
            ).astype(np.float64)
            counts = _aggregate(
                stacked.column(spec["count"]), codes, n_groups, "sum"
            ).astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                values = sums / counts
        else:
            values = _aggregate(
                stacked.column(spec["partial"]), codes, n_groups, spec["func"]
            )
        cols[spec["label"]] = Column.from_values(values)
    return gb._wrap(cols, series)


def _aggregate(column: Column, codes: np.ndarray, n_groups: int, func: str) -> np.ndarray:
    """Aggregate one column by group codes (code -1 = NA key, dropped)."""
    if (codes < 0).any():
        keep = codes >= 0
        column = column.filter(keep)
        codes = codes[keep]
    if func == "size":
        return np.bincount(codes, minlength=n_groups).astype(np.int64)

    isna = column.isna()
    if func == "count":
        return np.bincount(codes[~isna], minlength=n_groups).astype(np.int64)

    if func == "nunique":
        values = column.to_array() if column.is_category else column.values
        valid = ~isna
        codes, values = codes[valid], values[valid]
        coded = value_codes(values)
        if coded is None:
            return _nunique_by_set(codes, values, n_groups)
        # one entry per distinct (group, value) pair, counted per group
        of_value, n_values = coded
        pairs = np.unique(codes * n_values + of_value)
        return np.bincount(pairs // n_values, minlength=n_groups).astype(np.int64)

    if func == "first":
        values = column.to_array() if column.is_category else column.values
        _, first_positions = np.unique(codes, return_index=True)
        out = np.empty(n_groups, dtype=values.dtype)
        out[np.unique(codes)] = values[first_positions]
        return out

    values = column.values
    if column.is_category or values.dtype.kind == "O":
        raise TypeError(
            f"cannot {func} non-numeric column; use count/size/first/nunique"
        )
    if values.dtype.kind == "M":
        if func not in ("min", "max"):
            raise TypeError(f"cannot {func} datetime column")
        ints = values.view("int64")
        out = _minmax(ints, codes, n_groups, func)
        return out.view(values.dtype)

    work = values.astype(np.float64, copy=False)
    valid = ~isna
    if func == "sum":
        out = np.bincount(codes[valid], weights=work[valid], minlength=n_groups)
        if values.dtype.kind in "ib":
            return out.astype(np.int64)
        return out
    if func == "mean":
        sums = np.bincount(codes[valid], weights=work[valid], minlength=n_groups)
        counts = np.bincount(codes[valid], minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts
    if func in ("min", "max"):
        out = _minmax(work[valid], codes[valid], n_groups, func)
        if values.dtype.kind == "i" and not np.isnan(out).any():
            return out.astype(np.int64)
        return out
    if func == "std":
        sums = np.bincount(codes[valid], weights=work[valid], minlength=n_groups)
        sq = np.bincount(codes[valid], weights=work[valid] ** 2, minlength=n_groups)
        counts = np.bincount(codes[valid], minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
            var = (sq / counts - mean**2) * (counts / np.maximum(counts - 1, 1))
        var = np.where(counts > 1, np.maximum(var, 0.0), np.nan)
        return np.sqrt(var)
    raise ValueError(f"unsupported aggregate {func!r}")


def _nunique_by_set(codes: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """The reference count: a set of values per group, row by row."""
    out = np.zeros(n_groups, dtype=np.int64)
    seen: dict = {}
    for code, value in zip(codes, values):
        seen.setdefault(int(code), set()).add(value)
    for code, bucket in seen.items():
        out[code] = len(bucket)
    return out


def _minmax(values: np.ndarray, codes: np.ndarray, n_groups: int, func: str) -> np.ndarray:
    if values.dtype.kind == "f":
        init = np.inf if func == "min" else -np.inf
        out = np.full(n_groups, init, dtype=np.float64)
        op = np.minimum if func == "min" else np.maximum
        op.at(out, codes, values)
        out[np.isinf(out)] = np.nan
        return out
    info = np.iinfo(np.int64)
    init = info.max if func == "min" else info.min
    out = np.full(n_groups, init, dtype=np.int64)
    op = np.minimum if func == "min" else np.maximum
    op.at(out, codes, values)
    return out
