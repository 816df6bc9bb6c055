"""Eager execution of the shuffle operators.

The partition cut (``repro.core.optimizer.partitions``) lowers
oversized merges and group-bys, on every engine, into graphs of
``shuffle_write`` / ``shuffle_read`` / ``partial_agg`` /
``combine_agg`` / ``compact`` nodes over per-partition pieces; this
module is how every backend runs them.  A shuffle join is one store per
side -- each piece's ``shuffle_write`` splits it (:func:`hash_split`)
into the store the previous piece's write filled, tagging rows with
their position in the side -- bucket-local merges, and
:func:`restitch`.

Bucket assignment uses Python's builtin ``hash`` on key tuples: it is
the only cheap hash that is *equality-consistent* across mixed numeric
dtypes (``hash(1) == hash(1.0) == hash(True)``), which bucket-local
merges require.  String hashes are process-salted, so bucket contents
vary between runs -- results do not, because ``combine_agg`` restores
the in-memory row order from position columns (merge) or canonical
group order (groupby).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.frame.column import Column
from repro.frame.concat import concat_consuming
from repro.frame.dataframe import DataFrame
from repro.frame.groupby import combine_partials, partial_aggregate
from repro.frame.series import Series
from repro.graph.scheduler.stats import count
from repro.io.spill import ShuffleStore, session_spill_dir, spill_live_stores
from repro.memory.manager import SimulatedMemoryError

#: all NA key values colocate in one bucket (NA never joins, but the
#: rows must land somewhere deterministic w.r.t. equality)
_NA_TOKEN = ("\0lafp-na",)


def apply_shuffle_op(backend, node, inputs):
    """Dispatch one shuffle-lowering node on ``backend``."""
    op = node.op
    if op == "shuffle_write":
        return exec_shuffle_write(backend, node, inputs)
    if op == "shuffle_read":
        return drain_bucket(inputs, int(node.args["bucket"]))
    if op == "partial_agg":
        return exec_partial_agg(backend, node, inputs)
    if op == "combine_agg":
        return exec_combine_agg(backend, node, inputs)
    if op == "compact":
        return exec_compact(backend, node, inputs)
    raise ValueError(f"not a shuffle op: {op!r}")


# -- shuffle_write -----------------------------------------------------


def exec_shuffle_write(backend, node, inputs) -> ShuffleStore:
    """Hash-split one piece into its side's store: the store of the
    previous piece's write (a second input), else a new one."""
    args = node.args
    return hash_split(backend.materialize(inputs[0]), args["keys"],
                      int(args["n_buckets"]), args.get("pos_name"),
                      inputs[1] if len(inputs) > 1 else None)


def hash_split(frame: DataFrame, keys, n_buckets: int, pos_name=None,
               store: Optional[ShuffleStore] = None) -> ShuffleStore:
    """Kernel: hash-split ``frame`` on ``keys`` into ``store`` (a new
    one if None), each row tagged with its position in the store's rows
    so far in column ``pos_name`` if named."""
    keys = [str(k) for k in keys]
    manager = _current_manager()
    if store is None:
        store = ShuffleStore(n_buckets, spill_dir=session_spill_dir())
        count(shuffle_partitions=n_buckets)
    # the pos column and the split copies arrive while the piece itself
    # is still resident
    _make_headroom(manager, frame.nbytes)
    tagged = _with_pos(frame, pos_name, store.rows)
    store.rows += len(tagged)
    store.set_template(tagged)
    for bucket, piece in _split(tagged, _bucket_ids(tagged, keys, n_buckets)):
        store.append(bucket, piece)
    # the next piece is read before its write can spill for it: clear
    # the way now
    _make_headroom(manager, frame.nbytes)
    return store


def _with_pos(frame: DataFrame, pos_name, offset: int) -> DataFrame:
    """Rebuild ``frame`` (default index) with a global row-position
    column appended when the lowering asked for one."""
    cols = {name: frame.column(name) for name in frame.columns}
    if pos_name:
        cols[pos_name] = Column(
            np.arange(offset, offset + len(frame), dtype=np.int64)
        )
    return DataFrame.from_columns(cols)


def _make_headroom(manager, upcoming: int) -> None:
    """Spill ahead of a split that will roughly double ``upcoming``.

    Spills across *all* live stores: when a merge writes its second
    side, most resident bytes belong to the first side's store.
    """
    if manager is None:
        return
    headroom = manager.headroom()
    if headroom is None:
        return
    short = 2 * upcoming - headroom
    if short > 0:
        spill_live_stores(short)


def _bucket_ids(frame: DataFrame, keys, n_buckets: int) -> np.ndarray:
    """``hash(key tuple) % n_buckets`` per row.

    A single NA-free numeric, bool or categorical key hashes each
    distinct value once and maps the rows back through the inverse.
    """
    n = len(frame)
    if len(keys) == 1:
        col = frame.column(keys[0])
        if (
            col.is_category or col.values.dtype.kind in "iufb"
        ) and not col.isna().any():
            distinct, inverse = np.unique(col.values, return_inverse=True)
            if col.is_category:
                distinct = col.categories[distinct]
            hashed = np.fromiter(
                (hash((v,)) % n_buckets for v in distinct.tolist()),
                dtype=np.int64,
                count=len(distinct),
            )
            return hashed[inverse]
    normalized = []
    for key in keys:
        col = frame.column(key)
        values = col.to_array().tolist()
        isna = col.isna()
        normalized.append(
            [_NA_TOKEN if isna[i] else values[i] for i in range(n)]
        )
    return np.fromiter(
        (hash(row) % n_buckets for row in zip(*normalized)),
        dtype=np.int64,
        count=n,
    )


def _split(frame: DataFrame, ids: np.ndarray):
    pieces = []
    for bucket in np.unique(ids):
        idx = np.nonzero(ids == bucket)[0]
        cols = {
            name: _owned_take(frame.column(name), idx)
            for name in frame.columns
        }
        pieces.append((int(bucket), DataFrame.from_columns(cols)))
    return pieces


def exec_compact(backend, node, inputs):
    """Rebuild a frame with payload-owning columns (identity values).

    Bucket-local merge/agg results derive their object columns from the
    bucket frames via ``take``, which *shares* the bucket's heap-store
    payload -- so a small per-bucket result would pin its whole input
    bucket's string payload until the final combine drains every
    bucket.  Re-owning here lets the bucket die with its payload."""
    return backend.from_pandas(_owned_frame(backend.materialize(inputs[0])))


def _owned_frame(frame: DataFrame) -> DataFrame:
    cols = {}
    for name in frame.columns:
        col = frame.column(name)
        if col.is_category:
            # categories dictionaries are small; keep sharing them
            cols[name] = Column(
                col.values, categories=col.categories, shares=col._store
            )
        else:
            cols[name] = Column(col.values)
    return DataFrame.from_columns(cols)


def _owned_take(column: Column, idx: np.ndarray) -> Column:
    """Gather that does NOT share the parent's heap payload.

    ``Column.take`` shares the source's string/category payload store,
    which is right for short-lived derivations but wrong for bucket
    chunks: a chunk must be independently spillable, and a shared store
    stays resident until every sibling bucket is drained -- pinning the
    whole table's string payload through the read phase.  Categories
    keep sharing (one small dictionary per column)."""
    taken = column.values[idx]
    if column.is_category:
        return Column(
            taken, categories=column.categories, shares=column._store
        )
    return Column(taken)


# -- shuffle_read ------------------------------------------------------


def drain_bucket(stores: List[ShuffleStore], bucket: int) -> DataFrame:
    """Drain one bucket of the stores (a ``shuffle_read``'s inputs: its
    side's one store) into one frame, spilling other resident chunks
    first when the write phase left the budget too full to materialize
    it.

    The write phase keeps live bytes just under the budget, so without
    this the very first unpickle of a spilled chunk can OOM.  The
    stores' own appended-byte counters size the bucket (the planner's
    disk-based estimate undershoots in-memory width badly for CSV).
    """
    manager = _current_manager()
    if manager is not None:
        headroom = manager.headroom()
        if headroom is not None:
            # the drained chunks, their concat copy, and the downstream
            # bucket-local merge/agg output all coexist briefly
            need = 4 * sum(store.bucket_estimate() for store in stores)
            if headroom < need:
                spill_live_stores(need - headroom)
    frames = []
    for store in stores:
        try:
            frames.append(store.read_bucket(bucket))
            continue
        except SimulatedMemoryError:
            # the bucket estimate can undershoot a skewed bucket;
            # read_bucket is failure-atomic, so push everything still
            # resident (this bucket included) to disk
            spill_live_stores(1 << 62)
        # read again only out here: inside the except block the
        # traceback keeps the failed attempt's chunks alive
        frames.append(store.read_bucket(bucket))
    return _stack(frames)


# -- partial_agg -------------------------------------------------------


def exec_partial_agg(backend, node, inputs) -> DataFrame:
    """Grouped partials of one piece (or bucket)."""
    args = node.args
    partial = partial_aggregate(
        backend.materialize(inputs[0]), [str(k) for k in args["keys"]],
        [tuple(p) for p in args["pairs"]])
    # own the payload: the key columns are take-derived from the piece
    # and would pin its heap store
    return _owned_frame(partial)


# -- combine_agg -------------------------------------------------------


def exec_combine_agg(backend, node, inputs):
    args = node.args
    if args.get("kind") == "scalar":
        return combine_scalars(args["func"], inputs)
    frames = [backend.materialize(piece) for piece in inputs]
    if args.get("kind") == "merge":
        return backend.from_pandas(restitch(frames, args["pos_names"]))
    return backend.from_pandas(combine_partials(
        _stack(frames),
        [str(k) for k in args["keys"]],
        args["outputs"],
        as_index=args.get("as_index", True),
        series=args.get("name") if args.get("output") == "series" else None,
    ))


def combine_scalars(func: str, partials: list):
    """Fold per-partition reductions: ``sum``, ``min`` or ``max`` of
    the partials, or for ``mean`` the sum of the first half (the sums)
    over the sum of the second (the counts)."""
    if func == "mean":
        half = len(partials) // 2
        total = Series(partials[:half]).sum()
        n = Series(partials[half:]).sum()
        return total / n if n else float("nan")
    folded = Series(partials)
    if func == "sum":
        return folded.sum()
    return getattr(folded.dropna(), func)()


def restitch(frames: List[DataFrame], pos_names) -> DataFrame:
    """Kernel: stack bucket-local merge results in the eager merge's
    row order, read off the position columns, which are dropped."""
    lpos_name, rpos_name = pos_names
    stacked = _stack(frames)
    lpos = stacked.column(lpos_name)
    rpos = stacked.column(rpos_name)
    # unmatched-left rows (NaN rpos) keep their slot among the matches;
    # unmatched-right rows (NaN lpos) go to the end in right order --
    # exactly repro.frame.merge's emission order.
    left = np.where(
        lpos.isna(), np.inf, lpos.values.astype(np.float64, copy=False)
    )
    right = np.where(
        rpos.isna(), -1.0, rpos.values.astype(np.float64, copy=False)
    )
    order = np.lexsort((right, left))
    cols = {
        name: stacked.column(name).take(order)
        for name in stacked.columns
        if name not in (lpos_name, rpos_name)
    }
    return DataFrame.from_columns(cols)


def _stack(frames: List[DataFrame]) -> DataFrame:
    if len(frames) == 1:
        return frames[0]
    return concat_consuming(frames)


# -- session context ---------------------------------------------------


def _current_manager():
    from repro.memory import current_memory_manager

    return current_memory_manager()

