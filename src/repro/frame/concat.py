"""Row-wise concatenation of frames (and series).

Used by the partitioned backends to reassemble results, and by programs
that union datasets.  Columns are aligned by name; missing columns are
filled with NA; dtypes are promoted to the least common type.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.dataframe import DataFrame
from repro.frame.index import Index
from repro.frame.series import Series


def concat(
    objs: Sequence[Union[DataFrame, Series]],
    ignore_index: bool = True,
) -> Union[DataFrame, Series]:
    """Concatenate frames (or series) along the row axis."""
    objs = [o for o in objs if o is not None]
    if not objs:
        raise ValueError("no objects to concatenate")
    if isinstance(objs[0], Series):
        return _concat_series(objs, ignore_index)
    return _concat_frames(objs, ignore_index)


def concat_shifted(objs: Sequence[Union[DataFrame, Series]],
                   counts: Sequence[int]) -> Union[DataFrame, Series]:
    """Concatenate results taken from consecutive pieces, each labelled
    by row position in its piece: a label moves on by the rows of the
    pieces before its own (``counts``, one per piece), so each row keeps
    the label a concat of the whole pieces would have given it."""
    out = concat(objs)
    starts = np.cumsum([0] + [int(c) for c in counts[:-1]])
    out.index = Index(np.concatenate([
        obj.index.to_array().astype(np.int64) + start
        for obj, start in zip(objs, starts)
    ]))
    return out


def shallow_copy(frame: DataFrame) -> DataFrame:
    """A new frame over the same columns (default index): consuming the
    copy -- see :func:`concat_consuming` -- leaves ``frame`` intact."""
    return DataFrame.from_columns(
        {name: frame.column(name) for name in frame.columns}
    )


def concat_consuming(frames: list) -> Union[DataFrame, Series]:
    """Concatenate temporary frames, releasing inputs column by column.

    Used by the partitioned engines when the input pieces are
    throwaway: each source column's buffer is dropped as soon as it has
    been merged, so peak memory is ~1.5x the output instead of 2x (the
    difference between passing and OOM for borderline materializations).
    The input frames are left EMPTY -- callers must not reuse them.
    """
    if isinstance(frames[0], Series):
        out = _concat_series(frames, ignore_index=True)
        frames.clear()
        return out
    names = list(frames[0].columns)
    columns = {}
    for name in names:
        columns[name] = Column.concat([f.column(name) for f in frames])
        for f in frames:
            f._columns.pop(name, None)
    frames.clear()
    return DataFrame.from_columns(columns)


def _concat_series(series: Sequence[Series], ignore_index: bool) -> Series:
    merged = Column.concat([s.column for s in series])
    if ignore_index:
        return Series(merged, name=series[0].name)
    labels = np.concatenate([s.index.to_array() for s in series])
    return Series(merged, index=Index(labels), name=series[0].name)


def _concat_frames(frames: Sequence[DataFrame], ignore_index: bool) -> DataFrame:
    names: List[str] = []
    for frame in frames:
        for name in frame.columns:
            if name not in names:
                names.append(name)
    columns = {}
    for name in names:
        if all(name in frame.columns for frame in frames):
            # Column.concat preserves dictionary encoding when possible.
            columns[name] = Column.concat(
                [frame.column(name) for frame in frames]
            )
            continue
        pieces = []
        for frame in frames:
            if name in frame.columns:
                pieces.append(frame.column(name).to_array())
            else:
                pieces.append(np.full(len(frame), None, dtype=object))
        columns[name] = Column.from_values(_stack(pieces))
    out = DataFrame.from_columns(columns)
    if not ignore_index:
        labels = np.concatenate([f.index.to_array() for f in frames])
        out.index = Index(labels)
    return out


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate with least-common-dtype promotion."""
    kinds = {a.dtype.kind for a in arrays if len(a)}
    if not kinds:
        return np.concatenate(arrays) if arrays else np.array([])
    if "O" in kinds or "U" in kinds:
        return np.concatenate([a.astype(object) for a in arrays])
    if "M" in kinds:
        if kinds == {"M"}:
            return np.concatenate([a.astype("datetime64[ns]") for a in arrays])
        return np.concatenate([a.astype(object) for a in arrays])
    if "f" in kinds:
        return np.concatenate([a.astype(np.float64) for a in arrays])
    if kinds <= {"i", "b"}:
        if kinds == {"b"}:
            return np.concatenate(arrays)
        return np.concatenate([a.astype(np.int64) for a in arrays])
    return np.concatenate(arrays)
