"""Partition pruning: skip source pieces a folded predicate proves empty.

Runs after predicate pushdown has folded filters into ``scan`` nodes
(:func:`~repro.core.optimizer.predicate_pushdown.fold_predicates_into_scans`).
For every scan the pass takes the session's source (its partitions are
listed once per session, :mod:`repro.io.source_table`), and
keeps only those the predicate *may* match, judged against trusted
statistics:

- exact hive ``key=value`` constants (directory-partitioned datasets),
- exact per-partition column min/max from the metastore
  (:class:`repro.metastore.stats.PartitionStats`, or unsampled per-file
  extrema for dataset leaves).

Partitions without statistics are always kept -- pruning is a proof, not
a guess, which is what makes the pruned scan bit-identical to the full
one.  The kept :class:`~repro.io.source.Partition` objects land in the
``partitions`` arg (total in ``partitions_total``) of a fresh scan put
in the old one's place -- it reads the same rows -- where
backends, ``explain()``, and the scheduler's
:class:`~repro.graph.scheduler.stats.ExecutionStats` read them.  They
carry their byte ranges: the scan reads exactly the pieces kept here,
without listing the source again.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.node import Node
from repro.graph.taskgraph import ConsumerIndex, collect_subgraph


def prune_scan_partitions(
    roots: List[Node], metastore, prune: bool = True,
    index: Optional[ConsumerIndex] = None,
) -> int:
    """Replace each scan with one that names its kept partitions;
    returns partitions pruned across the subgraph.

    ``prune=False`` (the ``optimizer.partition_pruning`` ablation) still
    records ``partitions_total`` -- stats and ``explain()`` then report
    an honest ``read/total`` instead of an unknown -- but never drops a
    partition."""
    from repro.io.predicate import Predicate
    from repro.io.source_table import session_source

    index = index or ConsumerIndex(roots)
    pruned = 0
    for node in collect_subgraph(roots):
        if node.op != "scan" or node.args.get("partitions") is not None:
            continue
        try:
            source = session_source(node.args, metastore)
            parts = source.partitions()
        except Exception:  # noqa: BLE001 - missing path, unknown format
            continue
        narrowed = {"partitions_total": len(parts)}
        predicate = Predicate.from_arg(node.args.get("predicate"))
        if prune and predicate is not None and parts:
            kept = [p for p in parts if predicate.may_match(p)]
            if len(kept) < len(parts):
                narrowed["partitions"] = kept
                pruned += len(parts) - len(kept)
        index.substitute(node, node.rebuilt(**narrowed))
    return pruned
