"""Optimizer pipeline: runs the section-3 rules in order, per session options."""

from __future__ import annotations

from typing import List, Optional

from repro.graph.node import Node
from repro.graph.scheduler.stats import bound_record
from repro.graph.taskgraph import ConsumerIndex
from repro.core.optimizer.cache import substitute_cached_subplans
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
from repro.core.optimizer.shuffle import lower_shuffle_nodes


def optimize(
    roots: List[Node],
    session,
    live_nodes: Optional[List[Node]] = None,
) -> dict:
    """Optimize the subgraph under ``roots``.

    The plan is the caller's to give away: the rules change none of its
    nodes' ops or args, but replace nodes with fresh ones, repointing
    their readers, and a root in its slot of ``roots`` (a pin, of
    ``live_nodes``).  A session hands over a private copy of the user's
    graph (:func:`~repro.graph.taskgraph.physical_plan`), never the
    graph itself.  ``live_nodes`` are nodes of the plan whose values
    outlive the run besides the roots
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
    pins = live_nodes if opts.get("executor.cache") and live_nodes else []
    slots, roots = roots, list(roots) + pins
    report = {"cse": 0, "pushdown": 0, "scan_fold": 0, "projection": 0,
              "metadata": 0, "pruned_partitions": 0, "shuffle_lowered": 0,
              "partitions_cut": 0, "persisted": 0, "reuse_hits": 0,
              "reuse_misses": 0, "reuse_bytes": 0}
    # who reads whom, walked once; the rewriting passes keep it current
    index = ConsumerIndex(roots)
    state = None
    if opts.get("optimizer.reuse"):
        # First, against the RAW plan: later rewrites would change the
        # fingerprints, and substituted subtrees need no optimizing.
        # Its hits and misses are counted into the run's record, which
        # nothing else has written to yet.
        state = substitute_cached_subplans(roots, session, index)
        index.keys = state.candidates  # a key follows its value
        run = bound_record()
        if run is not None:
            report["reuse_hits"] = run.cache_hits
            report["reuse_misses"] = run.cache_misses
            report["reuse_bytes"] = run.cache_bytes_reused
    if opts.get("optimizer.common_subexpression"):
        report["cse"] = eliminate_common_subexpressions(roots, index)
    if opts.get("optimizer.predicate_pushdown"):
        report["pushdown"] = push_down_predicates(roots, index)
        # The terminating step: filters sitting on capable scan sources
        # fold into the scan's args (the source filters while reading).
        report["scan_fold"] = fold_predicates_into_scans(roots, index)
    if opts.get("optimizer.projection_pushdown"):
        # a node the reuse pass will cache keeps its raw value
        report["projection"] = push_down_projections(
            roots, session,
            whole=state.candidates if state is not None else (),
            index=index)
    if opts.get("optimizer.metadata"):
        report["metadata"] = apply_metadata_hints(
            roots, session.metastore, index=index)
    # After folding: drop partitions whose statistics prove the pushed
    # predicate can never match.  Runs even when pruning is ablated --
    # it then only records totals, so explain()/stats still report
    # read-vs-existing partition counts.
    report["pruned_partitions"] = prune_scan_partitions(
        roots, session.metastore,
        prune=bool(opts.get("optimizer.partition_pruning")), index=index,
    )
    for pin in roots[len(slots):]:
        pin.persist = True
    report["persisted"] = len(pins)
    # Last, after pruning stamped per-scan byte estimates: the size gate
    # cuts the plan per partition as the engine's policy says.  A node
    # the cut replaces hands its candidacy to the replacement, which
    # gathers or recombines the same value (a pin's plan is not cut).
    lowered, cut = lower_shuffle_nodes(roots, session, index=index)
    report["shuffle_lowered"], report["partitions_cut"] = lowered, cut
    slots[:], pins[:] = roots[:len(slots)], roots[len(slots):]
    # the run's scheduler offers executed results back through this
    session._cache_run = state
    return report
