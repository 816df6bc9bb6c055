"""Equi-join merge.

Supports ``how`` in {inner, left, right, outer} with ``on`` /
``left_on`` / ``right_on`` single- or multi-column keys -- the join shapes
the benchmark programs (`mov`, `fdb`, `stu`) use.

This module is the one join plan: every engine and the planner ask it
which columns are the keys (:func:`join_keys`), what the output columns
are called (:func:`join_labels`) and whether a partition-at-a-time merge
against a materialized right side is exact (:func:`can_broadcast`).

Algorithm: factorize both sides' key columns jointly to int64 codes
(equal keys get equal codes; NaN and NaT keys get -1 and never match;
several key columns combine pairwise and re-factorize, so codes stay
below the row count), stable-argsort the right codes so each code's
right rows are one run ``[lo, lo + hits)`` (``bincount`` / ``cumsum``
give the runs; the codes are dense, so a left row finds its run by
indexing, not searching), and expand the runs into row-index pairs with
``repeat`` / ``cumsum``; then gather both sides.  Row order is the
contract: left order, a left row's hits in right positional order, then
-- ``right`` / ``outer`` -- the unmatched right rows ascending.

Keys whose equality is not their dtype's -- the two sides differ in
dtype (int64 and float64 match by value), or an object column holds
anything but ``str`` / ``None`` -- are matched by the reference rule
itself, a hash table of per-row key tuples
(:func:`_match_rows_by_tuple`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frame.column import Column, value_codes
from repro.frame.dataframe import DataFrame


#: per side, the global row position a shuffle join carries to restitch
#: its bucket-local results into :func:`merge`'s row order
POSITION_COLUMNS = ("__lafp_lpos__", "__lafp_rpos__")


def join_keys(left_columns, right_columns, on=None, left_on=None,
              right_on=None, **_merge_options):
    """The key rule: ``(left keys, right keys)`` -- ``on``, or
    ``left_on`` plus ``right_on``, or the shared columns in left order
    (natural join; ``None`` if a column list is unknown).  Other merge
    options are ignored, so a merge's kwargs pass through whole."""
    if on is not None:
        keys = [on] if isinstance(on, str) else list(on)
        return keys, keys
    if left_on is not None and right_on is not None:
        lk = [left_on] if isinstance(left_on, str) else list(left_on)
        rk = [right_on] if isinstance(right_on, str) else list(right_on)
        if len(lk) != len(rk):
            raise ValueError("left_on and right_on must have equal length")
        return lk, rk
    if left_columns is None or right_columns is None:
        return None
    shared = set(right_columns)
    common = [c for c in left_columns if c in shared]
    if not common:
        raise ValueError("no common columns to merge on")
    return common, common


def join_labels(left_columns, right_columns, keys, suffixes=("_x", "_y"),
                **_merge_options) -> List[Tuple[int, str, str]]:
    """The label rule: ``(side, column, label)`` per output column (side
    0 left, 1 right) -- left columns, then right columns minus same-name
    keys; a name both sides carry, such keys aside, takes a suffix.
    ``keys`` is :func:`join_keys`' pair; other merge options pass."""
    left_keys, right_keys = keys
    same_key = left_keys == right_keys
    right_drop = set(right_keys) if same_key else set()
    overlap = (set(left_columns) & set(right_columns)) - (
        set(left_keys) if same_key else set()
    )
    return [
        (side, name, name + suffixes[side] if name in overlap else name)
        for side, columns in enumerate((left_columns, right_columns))
        for name in columns
        if side == 0 or name not in right_drop
    ]


def can_broadcast(how: str) -> bool:
    """The broadcast rule: merging each left partition against the whole
    right side is exact unless unmatched right rows are emitted (every
    partition would emit them again)."""
    return how in ("inner", "left")


def merge(
    left: DataFrame,
    right: DataFrame,
    on: Optional[Union[str, Sequence[str]]] = None,
    left_on: Optional[Union[str, Sequence[str]]] = None,
    right_on: Optional[Union[str, Sequence[str]]] = None,
    how: str = "inner",
    suffixes: Tuple[str, str] = ("_x", "_y"),
) -> DataFrame:
    """Join two frames on equality of key columns."""
    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(f"unsupported how={how!r}")
    left_keys, right_keys = join_keys(
        left.columns, right.columns, on, left_on, right_on
    )

    left_idx, right_idx = _match_rows(left, right, left_keys, right_keys, how)

    sides, rows = (left, right), (left_idx, right_idx)
    out: Dict[str, Column] = {
        label: _gather(sides[side].column(name), rows[side])
        for side, name, label in join_labels(
            left.columns, right.columns, (left_keys, right_keys), suffixes)
    }

    # For right/outer joins the left key gather may contain NA slots that
    # the right side can fill (same-name keys only).
    if left_keys == right_keys and how in ("right", "outer"):
        for key in left_keys:
            filled = _fill_key(
                left.column(key), left_idx, right.column(key), right_idx
            )
            out[key] = filled

    return DataFrame.from_columns(out)


def _match_rows(left, right, left_keys, right_keys, how):
    """Emit aligned row-position arrays; -1 marks a non-match (NA side)."""
    left_arrays = [left.column(k).to_array() for k in left_keys]
    right_arrays = [right.column(k).to_array() for k in right_keys]
    codes = _joint_codes(left_arrays, right_arrays)
    if codes is None:
        return _match_rows_by_tuple(
            left_arrays, right_arrays, len(right), how
        )
    left_codes, right_codes = codes
    # the right rows of each code are one run of ``order``; slot 0 is
    # the -1 code's, which nothing matches
    order = np.argsort(right_codes, kind="stable")
    run_len = np.bincount(
        right_codes + 1, minlength=int(left_codes.max(initial=-1)) + 2
    )
    run_lo = np.cumsum(run_len) - run_len
    run_len[0] = 0
    lo = run_lo[left_codes + 1]
    hits = run_len[left_codes + 1]

    # every left row emits its hits -- or one NA-sided pair
    emit = np.maximum(hits, 1) if how in ("left", "outer") else hits
    left_out = np.repeat(np.arange(len(left_codes)), emit)
    run_start = np.cumsum(emit) - emit
    within_run = np.arange(len(left_out)) - np.repeat(run_start, emit)
    hit = np.repeat(hits > 0, emit)
    right_out = np.full(len(left_out), -1, dtype=np.int64)
    right_out[hit] = order[(np.repeat(lo, emit) + within_run)[hit]]

    if how in ("right", "outer"):
        matched_right = np.zeros(len(right_codes), dtype=bool)
        matched_right[right_out[hit]] = True
        unmatched = np.flatnonzero(~matched_right)
        left_out = np.concatenate(
            [left_out, np.full(len(unmatched), -1, dtype=np.int64)]
        )
        right_out = np.concatenate([right_out, unmatched])
    return left_out, right_out


def _joint_codes(left_arrays, right_arrays):
    """int64 codes per row of each side, equal exactly where the key
    tuples are equal, -1 where a key is NaN/NaT (equal to nothing).
    ``None`` when some key pair has no array form of its equality."""
    n_left = len(left_arrays[0]) if left_arrays else 0
    codes = None
    for left_values, right_values in zip(left_arrays, right_arrays):
        column = _column_codes(left_values, right_values)
        if column is None:
            return None
        if codes is None:
            codes = column
            continue
        # combine, then re-factorize so the next product cannot overflow
        na = (codes < 0) | (column < 0)
        pair = codes * (int(column.max(initial=0)) + 1) + column
        codes = np.unique(pair, return_inverse=True)[1].astype(np.int64)
        codes[na] = -1
    if codes is None:
        return None
    return codes[:n_left], codes[n_left:]


def _column_codes(left_values, right_values):
    """Joint codes of one key column pair (left rows, then right rows)."""
    if left_values.dtype != right_values.dtype:
        return None
    values = np.concatenate([left_values, right_values])
    coded = value_codes(values)
    if coded is None:
        return None
    codes = coded[0]
    if values.dtype.kind == "f":
        codes[np.isnan(values)] = -1
    elif values.dtype.kind == "M":
        codes[np.isnat(values)] = -1
    return codes


def _match_rows_by_tuple(left_arrays, right_arrays, n_right, how):
    """The reference matcher: a hash table on the right side's key
    tuples, probed with the left side's."""
    table: Dict[tuple, List[int]] = {}
    for pos, key in enumerate(zip(*right_arrays)):
        table.setdefault(key, []).append(pos)

    left_out: List[int] = []
    right_out: List[int] = []
    matched_right = np.zeros(n_right, dtype=bool)
    for pos, key in enumerate(zip(*left_arrays)):
        hits = table.get(key)
        if hits:
            for hit in hits:
                left_out.append(pos)
                right_out.append(hit)
                matched_right[hit] = True
        elif how in ("left", "outer"):
            left_out.append(pos)
            right_out.append(-1)

    if how in ("right", "outer"):
        for pos in np.nonzero(~matched_right)[0]:
            left_out.append(-1)
            right_out.append(int(pos))

    return (
        np.asarray(left_out, dtype=np.int64),
        np.asarray(right_out, dtype=np.int64),
    )


def _gather(column: Column, indices: np.ndarray) -> Column:
    """Gather with -1 producing NA (dtype promoted as needed)."""
    has_na = bool((indices < 0).any())
    safe = np.where(indices < 0, 0, indices)
    if not has_na:
        return column.take(safe)
    if len(column) == 0:
        # every index is a miss (nothing to clip to): build the all-NA
        # output in the promoted dtype directly
        n = len(indices)
        if column.is_category:
            return Column.from_codes(
                np.full(n, -1, dtype=np.int64), column.categories
            )
        kind = column.values.dtype.kind
        if kind in "ibf":
            return Column(np.full(n, np.nan, dtype=np.float64))
        if kind == "M":
            return Column(
                np.full(n, np.datetime64("NaT"), dtype=column.values.dtype)
            )
        return Column(np.full(n, None, dtype=object))
    if column.is_category:
        codes = column.values[safe].copy()
        codes[indices < 0] = -1
        return Column.from_codes(codes, column.categories)
    values = column.values
    if values.dtype.kind in "ib":
        out = values[safe].astype(np.float64)
        out[indices < 0] = np.nan
        return Column(out)
    if values.dtype.kind == "f":
        out = values[safe].copy()
        out[indices < 0] = np.nan
        return Column(out)
    if values.dtype.kind == "M":
        out = values[safe].copy()
        out[indices < 0] = np.datetime64("NaT")
        return Column(out)
    out = values[safe].astype(object)
    out[indices < 0] = None
    return Column(out)


def _fill_key(left_col: Column, left_idx, right_col: Column, right_idx) -> Column:
    """Combine key values from whichever side matched."""
    left_vals = _gather(left_col, left_idx).to_array()
    right_vals = _gather(right_col, right_idx).to_array()
    out = np.where(left_idx >= 0, left_vals, right_vals)
    return Column.from_values(out)
