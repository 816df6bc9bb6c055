"""Expression graph of the Dask simulator.

Kinds:

=============== ============================================================
``scan``         one partition per source partition (any format)
``materialized`` partitions already computed (``persist()`` / shuffles)
``from_pandas``  eager frame split into row partitions
``blockwise``    partition-aligned map over child partitions (elementwise
                 ops, filters, column get/set, per-partition dropna, ...)
``tree``         map each child partition to a small partial, concatenate
                 the partials, apply a combine function -> one partition
                 (group-by aggregation, drop_duplicates, nlargest,
                 value_counts, scalar reductions)
``merge_broadcast`` join each left partition against a one-partition
                 right side (inner / left joins only)
``merge_shuffle``   both sides through the shared shuffle kernels
                 (:mod:`repro.backends.shuffle_ops`) -> one partition
``concat``       union of the children's partition lists
``head``         first ``n`` rows from the leading partitions
=============== ============================================================

``blockwise`` children must agree on partition count: rows pair up by
position, so a child cut differently (a held or fallen-back value is one
partition) is refused and the node takes the pandas fallback.
Evaluation is depth-first per partition, which gives operator *fusion*
for free: an entire elementwise pipeline runs on one partition before
the next partition is read.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

from repro.backends.base import BackendUnsupported

_expr_ids = itertools.count(1)


class Expr:
    """One node of the lazy expression graph."""

    __slots__ = ("id", "kind", "children", "params", "npartitions")

    def __init__(
        self,
        kind: str,
        children: Sequence["Expr"] = (),
        params: Optional[dict] = None,
        npartitions: int = 1,
    ):
        self.id = next(_expr_ids)
        self.kind = kind
        self.children: List[Expr] = list(children)
        self.params = params or {}
        self.npartitions = npartitions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Expr {self.id} {self.kind} p={self.npartitions}>"


def scan_expr(source, partitions, columns=None, predicate=None) -> Expr:
    """Source scan: one expression partition per
    :class:`~repro.io.source.Partition`, read through the source's
    ``read_partition`` (projection and folded predicate applied there).
    """
    return Expr(
        "scan",
        params={
            "source": source,
            "parts": list(partitions),
            "columns": columns,
            "predicate": predicate,
        },
        npartitions=max(1, len(partitions)),
    )


def materialized_expr(handles) -> Expr:
    return Expr(
        "materialized",
        params={"handles": list(handles)},
        npartitions=len(handles),
    )


def blockwise_expr(
    func: Callable,
    children: Sequence[Expr],
    description: str,
    bparams: Optional[dict] = None,
) -> Expr:
    counts = {c.npartitions for c in children}
    if len(counts) > 1:
        raise BackendUnsupported(
            f"blockwise over differently cut operands: {sorted(counts)}"
        )
    nparts = counts.pop()
    return Expr(
        "blockwise",
        children=children,
        params={"func": func, "bparams": bparams or {}, "desc": description},
        npartitions=nparts,
    )


def tree_expr(
    child: Expr,
    map_func: Callable,
    combine_func: Callable,
    description: str,
) -> Expr:
    return Expr(
        "tree",
        children=[child],
        params={"map": map_func, "combine": combine_func, "desc": description},
        npartitions=1,
    )


def concat_expr(children: Sequence[Expr]) -> Expr:
    return Expr(
        "concat",
        children=list(children),
        npartitions=sum(c.npartitions for c in children),
    )


def head_expr(child: Expr, n: int) -> Expr:
    return Expr("head", children=[child], params={"n": n}, npartitions=1)


def merge_broadcast_expr(left: Expr, right: Expr, kwargs: dict) -> Expr:
    return Expr(
        "merge_broadcast",
        children=[left, right],
        params={"kwargs": kwargs},
        npartitions=left.npartitions,
    )


def merge_shuffle_expr(left: Expr, right: Expr, kwargs: dict, keys,
                       nbuckets: int) -> Expr:
    return Expr(
        "merge_shuffle",
        children=[left, right],
        params={"kwargs": kwargs, "keys": keys, "nbuckets": nbuckets},
        npartitions=1,
    )

