"""Cache substitution: serve fingerprint-hit subplans, insert new ones.

Runs as the *first* optimizer pass (``optimizer.reuse``), against the
plan as built -- before CSE or any rewrite changes it -- so the
fingerprints it computes are exactly the ones a later session's raw plan
will produce (a ``held`` leaf fingerprints as the raw node whose value
it carries).  A miss's key names the value its node holds, and
``ConsumerIndex.substitute`` keeps it true.  No rewrite changes a node:
each puts a fresh one in its place.  When the new node computes the old
one's value (a CSE merge, a cache hit, a pruning stamp, the partition
cut), the key moves to it.  When it does not (a sunk or folded filter, a
top-n, a narrowed scan or edge, a dtype hint), the old node's key goes,
and so do the keys of the nodes above it, which now read a different
value.  A *root* keeps its raw value whatever the rewrites did below it
(the optimizer's contract, pinned by the equivalence fuzzer), so its
key follows its slot.  The post-execution insertion path thus offers a
value only under a raw fingerprint that names it.

A hit is replaced by a fresh ``from_cached`` leaf whose args carry the
serialized blob itself.  Carrying the bytes (not the cache key) makes
the rewrite eviction-proof -- a concurrent session evicting the entry
between substitution and execution cannot fault the plan -- and defers
deserialization to execution, where its cost is attributed to the node
like any other.

A subtree is eligible only when *every* node in it is deterministic and
replayable: a ``sample`` (unseeded randomness) or a side-effect node
(a replay would silently skip the effect) poisons all its consumers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from repro.cache.fingerprint import Unfingerprintable, fingerprint_node
from repro.cache.result_cache import (
    CacheKey,
    result_cache,
    serialize_value,
)
from repro.core.config import semantic_signature
from repro.graph.node import Node
from repro.graph.scheduler.stats import count
from repro.graph.taskgraph import ConsumerIndex


class CacheRunState:
    """Per-run cache bookkeeping, shared between the substitution pass
    and the scheduler's post-execution insertion seam.  What either
    did is counted into the run's record, not here.

    ``offer`` is called from scheduler worker threads (and the process
    strategy's coordination thread); everything it touches is guarded.
    """

    def __init__(
        self,
        backend: str,
        signature,
        budget: Optional[int],
        spill_budget: Optional[int],
        min_cost: float,
    ) -> None:
        self.backend = backend
        self.signature = signature
        self.budget = budget
        self.spill_budget = spill_budget
        self.min_cost = min_cost
        #: raw-graph fingerprint key per eligible node id (cache misses
        #: the insertion seam may fill after execution)
        self.candidates: Dict[int, CacheKey] = {}
        self._offered: Set[int] = set()
        self._lock = threading.Lock()

    def offer(self, node: Node, value, wall_seconds: float) -> bool:
        """Insert ``node``'s executed result if it is cache-worthy.

        Worthiness = the node was fingerprinted as a raw-plan miss AND
        its actual cost (wall seconds x serialized bytes) meets
        ``cache.min_cost``.  Non-eager values (stores, lazy expressions)
        are silently skipped.  Returns True on insert.
        """
        key = self.candidates.get(node.id)
        if key is None:
            return False
        with self._lock:
            if node.id in self._offered:
                return False
        try:
            blob, kind = serialize_value(value)
        except TypeError:
            # A lazy-backend interior value: the root offer after
            # materialization may still succeed, so don't mark it done.
            return False
        with self._lock:
            if node.id in self._offered:
                return False
            self._offered.add(node.id)
        if wall_seconds * len(blob) < self.min_cost:
            return False
        evicted = result_cache().put(
            key, blob, kind,
            budget=self.budget, spill_budget=self.spill_budget,
        )
        count(cache_inserted=1, cache_evictions=evicted)
        return True


def _subtree_cacheable(
    node: Node, memo: Dict[int, bool]
) -> bool:
    cached = memo.get(node.id)
    if cached is not None:
        return cached
    if node.op == "held":
        node = node.args["node"]  # judged by the plan that produced it
    ok = node.spec.cacheable and not node.spec.side_effect and all(
        _subtree_cacheable(inp, memo) for inp in node.inputs
    )
    memo[node.id] = ok
    return ok


def substitute_cached_subplans(
    roots: List[Node], session, index: Optional[ConsumerIndex] = None
) -> CacheRunState:
    """Replace cache-hit subgraphs under ``roots`` with ``from_cached``
    leaves; record every eligible miss as an insertion candidate.

    Top-down: a hit at a node serves the whole subtree, so its inputs
    are never probed (the biggest reusable prefix wins).
    """
    index = index or ConsumerIndex(roots)
    opts = session.options
    state = CacheRunState(
        backend=session.engine.name,
        signature=semantic_signature(opts),
        budget=opts.get("cache.budget"),
        spill_budget=opts.get("cache.spill_budget"),
        min_cost=float(opts.get("cache.min_cost")),
    )
    cache = result_cache()
    cacheable_memo: Dict[int, bool] = {}
    seen: Set[int] = set()

    def visit(node: Node) -> None:
        if node.id in seen:
            return
        seen.add(node.id)
        if node.op in ("held", "from_cached"):
            return  # the value is in hand already
        if _subtree_cacheable(node, cacheable_memo):
            try:
                fp = fingerprint_node(node, session)
            except Unfingerprintable:
                fp = None
            if fp is not None:
                key: CacheKey = (fp, state.backend, state.signature)
                hit = cache.get(key, budget=state.budget)
                if hit is not None:
                    blob, kind = hit
                    count(cache_hits=1, cache_bytes_reused=len(blob))
                    index.substitute(node, Node("from_cached", args={
                        "key": fp, "blob": blob, "nbytes": len(blob),
                        "kind": kind}))
                    return  # the subtree is served; nothing below runs
                count(cache_misses=1)
                state.candidates[node.id] = key
        for inp in node.inputs:
            visit(inp)

    for root in list(roots):
        visit(root)
    return state
