"""Optimizer pipeline: runs the section-3 rules in order, per session options."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.graph.node import Node
from repro.graph.scheduler.stats import bound_record
from repro.graph.taskgraph import ConsumerIndex
from repro.core.optimizer.cache import (
    retain_unrewritten,
    substitute_cached_subplans,
)
from repro.core.optimizer.common_subexpr import (
    eliminate_common_subexpressions,
)
from repro.core.optimizer.metadata_opt import apply_metadata_hints
from repro.core.optimizer.partition_pruning import prune_scan_partitions
from repro.core.optimizer.predicate_pushdown import (
    fold_predicates_into_scans,
    push_down_predicates,
)
from repro.core.optimizer.projection import push_down_projections
from repro.core.optimizer.partitions import cut_partitions
from repro.core.optimizer.shuffle import lower_shuffle_nodes


def optimize(
    roots: Sequence[Node],
    session,
    live_nodes: Optional[List[Node]] = None,
) -> dict:
    """Optimize the subgraph under ``roots`` in place.

    The plan is the caller's to give away: the rules rewire, re-op and
    stamp its nodes.  A session hands over a private copy of the user's
    graph (:func:`~repro.graph.taskgraph.physical_plan`), never the
    graph itself, so nothing is put back afterwards.  ``live_nodes`` are
    nodes of the plan whose values outlive the run besides the roots
    (:func:`~repro.core.optimizer.common_subexpr.pin_frontier`): under
    ``executor.cache`` they are optimized as roots -- a root keeps the
    value its raw plan defines, whatever moves beneath it -- and marked
    ``persist``.

    Each rule is gated by the session's options (``optimizer.*`` /
    ``executor.cache``), which ``option_context()`` and the ablation
    benchmarks flip per session.  Returns a report of what each rule did
    (used by tests and the ablation benchmarks).
    """
    opts = session.options
    cache = opts.get("executor.cache")
    pins = list(live_nodes or ()) if cache else []
    roots = list(roots) + pins
    report = {"cse": 0, "pushdown": 0, "scan_fold": 0, "projection": 0,
              "metadata": 0, "pruned_partitions": 0, "shuffle_lowered": 0,
              "partitions_cut": 0, "persisted": 0, "reuse_hits": 0,
              "reuse_misses": 0, "reuse_bytes": 0}
    state = None
    if opts.get("optimizer.reuse"):
        # First, against the RAW plan: later rewrites would change the
        # fingerprints, and substituted subtrees need no optimizing.
        # Its hits and misses are counted into the run's record, which
        # nothing else has written to yet.
        state = substitute_cached_subplans(roots, session)
        run = bound_record()
        if run is not None:
            report["reuse_hits"] = run.cache_hits
            report["reuse_misses"] = run.cache_misses
            report["reuse_bytes"] = run.cache_bytes_reused
    # who reads whom, walked once; the rewiring passes keep it current
    index = ConsumerIndex(roots)
    if opts.get("optimizer.common_subexpression"):
        report["cse"] = eliminate_common_subexpressions(roots, index)
    if opts.get("optimizer.predicate_pushdown"):
        report["pushdown"] = push_down_predicates(roots, index)
        # The terminating step: filters sitting on capable scan sources
        # fold into the scan's args (the source filters while reading).
        report["scan_fold"] = fold_predicates_into_scans(roots, index)
    if opts.get("optimizer.projection_pushdown"):
        # a merge the reuse pass will cache keeps its raw columns
        report["projection"] = push_down_projections(
            roots, session,
            whole=state.candidates if state is not None else ())
    if opts.get("optimizer.metadata"):
        report["metadata"] = apply_metadata_hints(roots, session.metastore)
    # After folding: drop partitions whose statistics prove the pushed
    # predicate can never match.  Runs even when pruning is ablated --
    # it then only records totals, so explain()/stats still report
    # read-vs-existing partition counts.
    report["pruned_partitions"] = prune_scan_partitions(
        roots, session.metastore,
        prune=bool(opts.get("optimizer.partition_pruning")),
    )
    # After pruning stamped per-scan byte estimates: lower oversized
    # merge/groupby nodes into the partition-wise shuffle pipeline.
    report["shuffle_lowered"] = lower_shuffle_nodes(roots, session)
    if state is not None:
        # results are cached under raw-plan fingerprints: withdraw the
        # interior nodes that no longer compute what theirs names
        retain_unrewritten(state, roots)
    if session.engine.spec.out_of_core:
        # Last: cut every frame node into per-partition nodes.  A cut
        # node that keeps its id still computes its raw value (a root
        # gathers its partitions; a pin's plan is not cut), so it stays
        # a reuse candidate.
        report["partitions_cut"] = cut_partitions(roots, session, pins)
    # the run's scheduler offers executed results back through this
    session._cache_run = state
    for pin in pins:
        pin.persist = True
    report["persisted"] = len(pins)
    return report
