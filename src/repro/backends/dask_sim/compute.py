"""Evaluator for the Dask-simulator expression graph.

Evaluation is depth-first per partition: asking for partition ``i`` of a
blockwise pipeline reads partition ``i`` of the CSV, runs the whole
elementwise chain on it, and releases it before partition ``i+1`` starts.
Combined with spilling (:mod:`repro.backends.dask_sim.store`) this yields
out-of-core execution.

On a :class:`~repro.memory.SimulatedMemoryError` the evaluator spills all
resident partitions and retries once; if the retry fails the program
genuinely cannot run (e.g. a forced whole-frame materialization, the `emp`
failure of Figure 12) and the error propagates.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.frame import DataFrame, concat
from repro.frame.concat import concat_consuming, shallow_copy
from repro.memory import SimulatedMemoryError
from repro.backends.dask_sim.expr import Expr, materialized_expr
from repro.backends.dask_sim.store import PartitionStore


class Evaluator:
    """Executes expression graphs against a partition store."""

    def __init__(self, store: PartitionStore):
        self.store = store

    # -- public API --------------------------------------------------------

    def materialize(self, expr: Expr):
        """Concatenate all partitions of ``expr`` into one eager value.

        The consuming concat releases each piece's buffers as they
        merge.  It consumes shallow copies: a pinned partition
        (``persist()``, a subexpression two roots share) is handed out
        by reference and must survive for its next reader.  The copies
        are made inside the guarded call, so the retry after a
        :class:`SimulatedMemoryError` starts from whole pieces again,
        not from the columns the interrupted concat had not yet popped.
        """
        parts = []
        for i in range(expr.npartitions):
            parts.append(self._guarded(self.eval_partition, expr, i))
            self.store.ensure_headroom()
        if len(parts) == 1:
            return parts[0]
        if isinstance(parts[0], DataFrame):
            return self._guarded(
                lambda: concat_consuming([shallow_copy(p) for p in parts])
            )
        return concat(parts)

    def persist(self, expr: Expr) -> Expr:
        """Compute every partition and pin it in the (spillable) store."""
        handles = []
        for i in range(expr.npartitions):
            value = self._guarded(self.eval_partition, expr, i)
            handles.append(self.store.put(value))
        return materialized_expr(handles)

    def _guarded(self, func: Callable, *args):
        try:
            return func(*args)
        except SimulatedMemoryError:
            self.store.spill_all()
            return func(*args)

    # -- partition evaluation -----------------------------------------------

    def eval_partition(self, expr: Expr, i: int):
        kind = expr.kind
        if kind == "scan":
            return self._scan_partition(expr, i)
        if kind == "materialized":
            return expr.params["handles"][i].get()
        if kind == "blockwise":
            args = [
                self.eval_partition(c, i if c.npartitions > 1 else 0)
                for c in expr.children
            ]
            return expr.params["func"](args, expr.params["bparams"])
        if kind == "tree":
            return self._eval_tree(expr)
        if kind == "concat":
            return self._eval_concat_partition(expr, i)
        if kind == "head":
            return self._eval_head(expr)
        if kind == "merge_broadcast":
            left = self.eval_partition(expr.children[0], i)
            right = self.eval_partition(expr.children[1], 0)
            return left.merge(right, **expr.params["kwargs"])
        if kind == "merge_shuffle":
            return self._eval_shuffle_bucket(expr, i)
        raise ValueError(f"unknown expression kind {kind!r}")

    def _scan_partition(self, expr: Expr, i: int):
        params = expr.params
        parts = params["parts"]
        if not parts:  # every partition pruned: typed empty piece
            return params["source"].empty_frame(
                params["columns"], predicate=params["predicate"]
            )
        return params["source"].read_partition(
            parts[i],
            columns=params["columns"],
            predicate=params["predicate"],
        )

    def _eval_tree(self, expr: Expr):
        child = expr.children[0]
        map_func = expr.params["map"]
        partials = []
        for j in range(child.npartitions):
            part = self.eval_partition(child, j)
            partials.append(map_func(part))
            del part
            self.store.ensure_headroom()
        if len(partials) == 1:
            combined = partials[0]
        elif isinstance(partials[0], DataFrame):
            combined = concat_consuming(partials)
        else:
            combined = concat(partials)
        return expr.params["combine"](combined)

    def _eval_concat_partition(self, expr: Expr, i: int):
        offset = 0
        for child in expr.children:
            if i < offset + child.npartitions:
                return self.eval_partition(child, i - offset)
            offset += child.npartitions
        raise IndexError(f"partition {i} out of range")

    def _eval_head(self, expr: Expr):
        child = expr.children[0]
        n = expr.params["n"]
        pieces = []
        have = 0
        for j in range(child.npartitions):
            part = self.eval_partition(child, j)
            pieces.append(part.head(n - have))
            have += len(pieces[-1])
            if have >= n:
                break
        return pieces[0] if len(pieces) == 1 else concat(pieces)

    # -- shuffle join -----------------------------------------------------------

    def _eval_shuffle_bucket(self, expr: Expr, bucket: int):
        buckets = expr.params.get("_buckets")
        if buckets is None:
            buckets = self._shuffle(expr)
            expr.params["_buckets"] = buckets
        (left_handles, left_template), (right_handles, right_template) = (
            buckets
        )
        kwargs = expr.params["kwargs"]
        left = self._gather_bucket(left_handles[bucket], left_template)
        right = self._gather_bucket(right_handles[bucket], right_template)
        return left.merge(right, **kwargs)

    def _gather_bucket(self, handles, template) -> DataFrame:
        frames = [h.get() for h in handles]
        if not frames:
            # zero-row template, not DataFrame({}): an empty bucket
            # must keep the side's schema or the merge drops columns
            return template if template is not None else DataFrame({})
        return frames[0] if len(frames) == 1 else concat(frames)

    def _shuffle(self, expr: Expr):
        left_expr, right_expr = expr.children
        kwargs = expr.params["kwargs"]
        nbuckets = expr.params["nbuckets"]
        left_keys, right_keys = _merge_keys(kwargs)

        left_buckets = self._partition_side(left_expr, left_keys, nbuckets)
        right_buckets = self._partition_side(right_expr, right_keys, nbuckets)
        return left_buckets, right_buckets

    def _partition_side(self, side: Expr, keys: List[str], nbuckets: int):
        buckets: List[list] = [[] for _ in range(nbuckets)]
        template = None
        for i in range(side.npartitions):
            part = self.eval_partition(side, i)
            if template is None:
                template = part[np.zeros(len(part), dtype=bool)]
            codes = _bucket_codes(part, keys, nbuckets)
            for b in range(nbuckets):
                piece = part[codes == b]
                if len(piece):
                    buckets[b].append(self.store.put(piece))
            del part
            self.store.ensure_headroom()
        return buckets, template


def _merge_keys(kwargs: dict):
    on = kwargs.get("on")
    if on is not None:
        keys = [on] if isinstance(on, str) else list(on)
        return keys, keys
    left_on = kwargs.get("left_on")
    right_on = kwargs.get("right_on")
    lk = [left_on] if isinstance(left_on, str) else list(left_on)
    rk = [right_on] if isinstance(right_on, str) else list(right_on)
    return lk, rk


def _bucket_codes(frame: DataFrame, keys: List[str], nbuckets: int) -> np.ndarray:
    """Deterministic per-row bucket assignment on the key tuple."""
    combined = np.zeros(len(frame), dtype=np.uint64)
    for key in keys:
        values = frame.column(key).to_array()
        if values.dtype.kind in "if":
            h = values.astype(np.float64).view(np.uint64)
        elif values.dtype.kind == "M":
            h = values.view("int64").astype(np.uint64)
        else:
            h = np.array(
                [_string_hash(v) for v in values], dtype=np.uint64
            )
        combined = combined * np.uint64(1099511628211) + h
    return (combined % np.uint64(nbuckets)).astype(np.int64)


def _string_hash(value) -> int:
    """Stable FNV-1a hash (Python's hash() is salted per process)."""
    data = ("" if value is None else str(value)).encode("utf-8")
    h = 1469598103934665603
    for byte in data:
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h
