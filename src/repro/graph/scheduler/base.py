"""The scheduling core: one ready-set loop, shared by every strategy.

A scheduler runs a task subgraph against a backend.  Everything
strategy-independent lives here exactly once: culling to the needed
subgraph and the static ordering pass (:meth:`Scheduler._plan`), the
:class:`ReadySet` state machine (task-level in-degrees, the one ready
heap, queue-wait stamps, the section-2.6 release rule), the one
admission rule (:meth:`Scheduler._admit`: cached short-circuit, free
slot, the one memory rule), per-node execution with stats capture, and
the run scope with its failure unwind.  A strategy is its *submit seam*
-- where an admitted task runs (inline or on a thread pool) -- and
nothing else.

The memory rule: a run whose memory manager has a budget admits a task
only when nothing else is in flight.  Tasks still leave the heap in the
static order, so every strategy allocates, spills and fails exactly
where ``serial`` does -- spill volume and OOM are functions of the plan,
not of thread timing, and nothing needs repairing after the fact.
Unbudgeted runs keep ``max_workers`` tasks in flight.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.node import Node
from repro.graph.scheduler.stats import ExecutionStats, NodeStat
from repro.graph.taskgraph import (
    consumers_by_id,
    dependency_counts,
    initial_refcounts,
    needed_nodes,
    topological_order,
)

#: the unit of scheduling: one node, or a linear chain from
#: :func:`~repro.graph.scheduler.fused.fuse_linear_chains` (every
#: member but the head depends on its predecessor alone, every member
#: but the tail is consumed by its successor alone).
Task = List[Node]


class ExecutionError(RuntimeError):
    """A strategy failed to complete a plan for an infrastructure
    reason (tasks left unreachable), as opposed to the plan itself
    raising.  The scheduler guarantees budget and spill files were
    reclaimed before this surfaces."""


def release_inputs(node: Node, refcounts: Dict[int, int],
                   root_ids: Set[int],
                   drop: Callable[[Node], None]) -> None:
    """The section-2.6 release rule, the only copy: ``node`` has run, so
    each input loses a consumer, and an input nobody else will read is
    ``drop``-ped (roots and persisted nodes stay).  Execution drops the
    result itself; :func:`~repro.graph.scheduler.order.
    simulate_peak_bytes` drops its byte estimate.  Duplicate inputs
    (``x + x``) count once per edge, as :func:`initial_refcounts` does.
    """
    for inp in node.inputs:
        if inp.id not in refcounts:
            continue
        refcounts[inp.id] -= 1
        if (
            refcounts[inp.id] == 0
            and inp.id not in root_ids
            and not inp.persist
        ):
            drop(inp)


class ReadySet:
    """Which task may start next, and what finishing one frees.

    Kahn's algorithm over *all* edges (data and ordering, so lazy-print
    chains stay in program order) with one heap keyed ``(static
    priority, head node id)``: popping it one task at a time is the
    memory-minimizing serial order, and a parallel driver admits in the
    same order.  Plain, unlocked state: exactly one thread -- the one
    that drives the run -- may touch an instance.

    ``root_ids=None`` builds an ordering-only set whose :meth:`release`
    is never called (:func:`~repro.graph.scheduler.order.
    priority_topological_order`).  ``consumers`` is the
    ``consumers_by_id`` of the tasks' nodes when the caller has already
    walked the edges (a run orders, groups and executes one node set);
    it is only read.
    """

    def __init__(self, tasks: Sequence[Task], priorities: Dict[int, int],
                 root_ids: Optional[Set[int]] = None,
                 consumers: Optional[Dict[int, List[Node]]] = None):
        order = [node for task in tasks for node in task]
        self._consumers = (
            consumers_by_id(order) if consumers is None else consumers
        )
        self._waiting = dependency_counts(order, self._consumers)
        self._by_head = {task[0].id: task for task in tasks}
        self._priorities = priorities
        self._root_ids = root_ids or set()
        self._refcounts = (
            initial_refcounts(order) if root_ids is not None else {}
        )
        #: the ready heap: ``(priority, head node id, task, ready since)``.
        self.heap: List[Tuple[int, int, Task, float]] = []
        #: tasks not yet completed; the run is over at zero.
        self.remaining = len(tasks)
        #: admission is paused by the memory rule (one throttle event is
        #: recorded per pause, not per re-check).
        self.throttled = False
        now = time.perf_counter()
        for task in tasks:
            if self._waiting[task[0].id] == 0:
                self.push(task, now)

    def push(self, task: Task, when: float) -> None:
        """Mark ``task`` ready as of ``when`` (also how a lost task is
        re-queued)."""
        head = task[0].id
        heapq.heappush(
            self.heap, (self._priorities.get(head, head), head, task, when)
        )

    def pop(self) -> Tuple[Task, float]:
        """The next task in admission order and when it became ready."""
        return heapq.heappop(self.heap)[2:]

    def release(self, node: Node) -> None:
        """``node`` has run: free the inputs it was the last reader of."""
        release_inputs(node, self._refcounts, self._root_ids,
                       Node.clear_result)

    def complete(self, task: Task) -> None:
        """``task`` is done: its consumers with nothing left to wait
        for become ready.  Only the tail has consumers outside the task,
        and they are heads (see :data:`Task`)."""
        self.remaining -= 1
        consumers = self._consumers.get(task[-1].id)
        if consumers:
            waiting = self._waiting
            now = time.perf_counter()
            for consumer in consumers:
                waiting[consumer.id] -= 1
                if waiting[consumer.id] == 0:
                    self.push(self._by_head[consumer.id], now)


class Scheduler:
    """Runs task subgraphs on a session's engine (one strategy per
    class).

    ``session`` is the owning :class:`repro.core.session.Session`, whose
    backend runs the nodes and whose memory manager the scheduler
    charges; the threaded strategy activates it on its worker threads so
    buffers allocated mid-node register with that manager too.
    """

    name = "abstract"
    #: the threaded strategy sets this True: after planning it issues
    #: prefetches for the byte ranges the plan's scans will read, so
    #: remote latency overlaps compute (the inline strategies gain
    #: nothing -- the scan is the next thing they run anyway).
    prefetches_ranges = False

    def __init__(self, *, session, max_workers: int = 1,
                 static_order: bool = True):
        self.backend = session.backend
        self.session = session
        #: the session's manager, read once: reading it writes the
        #: ``memory.budget`` option in force now through to it.
        self.memory = session.memory
        self.max_workers = max_workers
        #: apply the memory-aware static ordering pass
        #: (``executor.static_order``) before running.
        self.static_order = bool(static_order)
        #: the record the next run fills.  It exists before the run
        #: does, so planning that belongs to the run (the session's
        #: reuse pass) can already write to it.
        self.stats = self._fresh_stats()
        self.last_stats: Optional[ExecutionStats] = None
        #: per-run cache bookkeeping (a CacheRunState) installed by
        #: Session._run when ``optimizer.reuse`` is on; every strategy's
        #: node-completion path offers executed results through it.
        self.cache_state = None
        #: node id -> predicted output bytes (set per execute()).
        self._estimates: Dict[int, int] = {}
        #: node id -> static priority (set per execute(); empty when the
        #: ordering pass is off): the ready heap's key ahead of the node id.
        self._priorities: Dict[int, int] = {}

    # -- public API ------------------------------------------------------

    def execute(self, roots: Sequence[Node]) -> List[object]:
        """Compute ``roots``; returns their materialized results.

        Statistics of the run land in :attr:`last_stats`.  Around the
        strategy's driver: the run's record (bound here for the
        coordinating thread: planning reads, inline nodes and the
        roots' materialization count into it), planning, prefetch, and
        -- when the driver raises -- the unwind.

        The driver has let its in-flight work drain by the time an
        exception reaches the unwind, so every result the run produced
        can be dropped (persisted ones stay, as :meth:`Node.clear_result`
        defines): a failed run leaves the tracked bytes, and the spill
        files they pin, as it found them.  Side-effect nodes stay done
        -- a print that reached stdout must not be repeated by the next
        collect.
        """
        stats, self.stats = self.stats, self._fresh_stats()
        self.last_stats = stats
        with stats.bound():
            order, root_ids, consumers = self._plan(roots, stats)
            prefetched_urls = self._issue_prefetch(order, stats)
            cached = {node.id for node in order if node.computed}
            ready = ReadySet(
                self._tasks(order, root_ids, consumers, stats),
                self._priorities, root_ids, consumers,
            )
            started = time.perf_counter()
            try:
                self._run(ready, stats)
                return self._results(roots)
            except BaseException:
                for node in order:
                    if node.id not in cached and not node.spec.side_effect:
                        node.clear_result()
                raise
            finally:
                # finalized even when a node raises (OOM cells included):
                # the session publishes these stats either way.
                stats.wall_seconds = time.perf_counter() - started
                stats.manager_peak_bytes = self.memory.peak
                self._purge_prefetch(prefetched_urls)

    def _fresh_stats(self) -> ExecutionStats:
        return ExecutionStats(
            strategy=self.name,
            max_workers=self.max_workers,
        )

    def _plan(self, roots: Sequence[Node], stats: ExecutionStats):
        """Cull, estimate, and statically order the subgraph."""
        order = topological_order(roots)
        needed = needed_nodes(roots)
        order = [n for n in order if n.id in needed]
        root_ids = {r.id for r in roots}
        # Per-node size predictions (width x rows from source statistics,
        # propagated through operators): the static order ranks branches
        # by them, and stats record them next to the actual bytes.
        from repro.graph.scheduler.estimates import estimate_node_bytes
        from repro.graph.scheduler.order import (
            priority_topological_order,
            simulate_peak_bytes,
            static_priorities,
        )

        self._estimates = estimate_node_bytes(order, self.session)
        # Memory-aware static ordering (ROADMAP item 2): finish the
        # branch that frees the most bytes first.  The priorities key
        # the ready heap of every strategy.
        self._priorities = (
            static_priorities(order, self._estimates)
            if self.static_order else {}
        )
        # the order a one-at-a-time drain of the ready set follows (node
        # id breaks every tie when the ordering pass is off); the edges
        # are walked once for ordering, task grouping and the run
        consumers = consumers_by_id(order)
        order = priority_topological_order(
            order, self._priorities, consumers
        )
        stats.static_order = self.static_order
        stats.estimated_peak_bytes = simulate_peak_bytes(
            order, self._estimates, root_ids
        )
        return order, root_ids, consumers

    def _tasks(self, order: List[Node], root_ids: Set[int], consumers,
               stats: ExecutionStats) -> List[Task]:
        """How ``order`` is grouped into tasks: one node each, unless a
        strategy fuses linear chains."""
        return [[node] for node in order]

    def _results(self, roots: Sequence[Node]) -> List[object]:
        results = []
        for root in roots:
            value = self.backend.materialize(root.result)
            root.result = value
            results.append(value)
        return results

    # -- prefetch --------------------------------------------------------

    def _issue_prefetch(self, order: List[Node],
                        stats: ExecutionStats) -> Set[str]:
        """Prefetch the plan's scan ranges (parallel strategies only),
        counted into ``stats`` from the fetch threads; returns the URLs
        touched so the run's finally can purge leftovers (pruned
        partitions, failed runs)."""
        urls: Set[str] = set()
        if self.prefetches_ranges:
            from repro.io.prefetch import prefetch_scan_node

            for node in order:
                if node.op == "scan":
                    urls.update(prefetch_scan_node(node, self.session, stats))
        return urls

    @staticmethod
    def _purge_prefetch(prefetched_urls: Set[str]) -> None:
        if prefetched_urls:
            from repro.io.prefetch import range_cache

            for url in prefetched_urls:
                range_cache().purge_url(url)

    # -- strategy hook ---------------------------------------------------

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        """Drive ``ready`` to completion through the strategy's seam."""
        raise NotImplementedError

    # -- admission (the one rule every driver asks) -----------------------

    def _admit(self, ready: ReadySet, in_flight: int,
               stats: ExecutionStats) -> Optional[Tuple[Task, float]]:
        """The next task to start and when it became ready, or ``None``
        when nothing may start now (nothing is ready, or the memory
        rule holds the head of the heap back).  The caller checks its
        own slot limit.  Cached (persisted) nodes complete here without
        running: their inputs are not re-read, so nothing is released.
        """
        while True:
            if not ready.heap:
                if ready.remaining and not in_flight:
                    raise ExecutionError(
                        f"{self.name} scheduler stalled with "
                        f"{ready.remaining} tasks unreachable"
                    )
                return None
            head = ready.heap[0][2][0]
            if head.computed:
                stats.add(cache_hits=1)
                ready.complete(ready.pop()[0])
                continue
            if self._throttled(in_flight):
                if not ready.throttled:
                    stats.add(throttle_waits=1)
                    ready.throttled = True
                return None
            ready.throttled = False
            return ready.pop()

    def _throttled(self, in_flight: int) -> bool:
        """The memory rule: under a budget, nothing starts beside a
        running task.  A budgeted run therefore allocates in exactly
        ``serial``'s order, whatever the strategy; an unbudgeted one is
        bounded by the caller's slot limit alone.  Never throttles an
        empty pool, so the graph cannot deadlock."""
        return in_flight > 0 and self.memory.budget is not None

    # -- shared plumbing -------------------------------------------------

    def _run_inline(self, ready: ReadySet, task: Task,
                    ready_at: Optional[float],
                    stats: ExecutionStats) -> None:
        """The inline seam: run ``task`` on the coordinating thread,
        releasing link by link so a chain never holds more than one
        interior result."""
        for node in task:
            self._execute_node(node, stats, ready_at)
            ready.release(node)
            ready_at = None
        ready.complete(task)

    def _execute_node(self, node: Node, stats: ExecutionStats,
                      ready_at: Optional[float] = None) -> None:
        """Run one node and account it in the run's record.

        Queue wait is measured from ``ready_at`` (the moment the node's
        last dependency finished) to the moment it starts here.  Byte
        attribution diffs the manager's monotonic counters around the
        backend call; exact when nodes run one at a time, an
        approximation when a parallel strategy overlaps nodes.
        """
        memory = self.memory
        reg_before = memory.total_registered
        rel_before = memory.total_released
        started = time.perf_counter()
        value = self.backend.apply(node, [inp.result for inp in node.inputs])
        if node.persist:
            # Section 3.5: persist shared subexpressions.
            value = self.backend.persist(value)
        node.set_result(value)
        wall = time.perf_counter() - started
        stats.add(NodeStat.of(
            node,
            wall_seconds=wall,
            queue_wait_seconds=(
                max(0.0, started - ready_at) if ready_at is not None else 0.0
            ),
            bytes_registered=memory.total_registered - reg_before,
            bytes_released=memory.total_released - rel_before,
            worker=threading.current_thread().name,
            bytes_estimated=self._estimates.get(node.id),
        ))
        if self.cache_state is not None:
            self.cache_state.offer(node, value, wall)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} backend={self.backend!r}>"
