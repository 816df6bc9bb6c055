"""Evaluator for the Dask-simulator expression graph.

Evaluation is depth-first per partition: asking for partition ``i`` of a
blockwise pipeline reads partition ``i`` of the CSV, runs the whole
elementwise chain on it, and releases it before partition ``i+1`` starts.
Combined with spilling (:mod:`repro.backends.dask_sim.store`) this yields
out-of-core execution.

A shuffle join runs the eager engines' shuffle kernels
(:mod:`repro.backends.shuffle_ops`): its buckets spill and count like
theirs, and their stores close when the join is done.

A :class:`~repro.memory.SimulatedMemoryError` propagates: the store
spills ahead of pressure between partitions, so an OOM that still
happens means the program cannot run in the budget (e.g. a forced
whole-frame materialization, the `emp` failure of Figure 12).
"""

from __future__ import annotations

from repro.backends.dask_sim.expr import Expr, materialized_expr
from repro.backends.dask_sim.store import PartitionStore
from repro.backends.shuffle_ops import hash_split, merge_bucket_pairs, restitch
from repro.frame import DataFrame, concat
from repro.frame.concat import concat_consuming, shallow_copy
from repro.frame.merge import POSITION_COLUMNS


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
        by reference and must survive for its next reader.
        """
        parts = []
        for i in range(expr.npartitions):
            parts.append(self.eval_partition(expr, i))
            self.store.ensure_headroom()
        if len(parts) == 1:
            return parts[0]
        if isinstance(parts[0], DataFrame):
            return concat_consuming([shallow_copy(p) for p in parts])
        return concat(parts)

    def persist(self, expr: Expr) -> Expr:
        """Compute every partition and pin it in the (spillable) store."""
        handles = []
        for i in range(expr.npartitions):
            handles.append(self.store.put(self.eval_partition(expr, i)))
        return materialized_expr(handles)

    # -- partition evaluation -----------------------------------------------

    def eval_partition(self, expr: Expr, i: int):
        kind = expr.kind
        if kind == "scan":
            return self._scan_partition(expr, i)
        if kind == "materialized":
            return expr.params["handles"][i].get()
        if kind == "blockwise":
            args = [self.eval_partition(c, i) for c in expr.children]
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
            return self._eval_shuffle_merge(expr)
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

    def _eval_shuffle_merge(self, expr: Expr) -> DataFrame:
        """Hash-split both sides into bucket stores, merge the bucket
        pairs and restitch the eager row order; the stores (and their
        spill file) go when the join is done, however it ends."""
        stores = []
        try:
            for side, keys, pos_name in zip(
                expr.children, expr.params["keys"], POSITION_COLUMNS
            ):
                stores.append(hash_split(
                    self._partitions(side), keys, expr.params["nbuckets"],
                    pos_name,
                ))
            pieces = merge_bucket_pairs(*stores, expr.params["kwargs"])
            return restitch(pieces, POSITION_COLUMNS)
        finally:
            for store in stores:
                store.close()

    def _partitions(self, expr: Expr):
        for i in range(expr.npartitions):
            yield self.eval_partition(expr, i)
            self.store.ensure_headroom()
