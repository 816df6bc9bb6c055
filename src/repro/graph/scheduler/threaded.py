"""The threaded strategy: the thread-pool seam.

Independent task-graph nodes run concurrently on a worker pool sized by
``executor.max_workers``.  The calling thread coordinates: it admits
ready tasks in the one admission order (:meth:`Scheduler._admit`),
waits for a completion, and releases inputs and propagates readiness
itself -- workers only run ``backend.apply`` and set their node's
result, so the ready set needs no lock.  Under a memory budget the one
memory rule keeps a single task in flight, so the pool then runs the
plan exactly as ``serial`` would; unbudgeted, up to ``max_workers``
overlap.  At least one node is always in flight, so progress is
guaranteed.

Worker calls run with the run's record bound and the owning session
active (:meth:`ThreadedScheduler._on_pool_thread`), so buffers
allocated mid-node charge that session's memory manager and the work is
counted into the run.
"""

from __future__ import annotations

import queue
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional

from repro.graph.node import Node
from repro.graph.scheduler.base import ReadySet, Scheduler, Task
from repro.graph.scheduler.stats import ExecutionStats


class ThreadedScheduler(Scheduler):
    """Ready-set scheduling over a thread pool."""

    name = "threaded"
    prefetches_ranges = True

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        """Futures announce themselves on a queue (measured ~11 us
        cheaper per completion than arming a ``wait(FIRST_COMPLETED)``)
        and are collected on this thread only, which is what lets
        :class:`ReadySet` go unlocked."""
        done: queue.SimpleQueue = queue.SimpleQueue()
        pending: Dict[Future, Task] = {}
        # leaving the block joins the workers: when a node failed, the
        # others have set (or not set) their results before the run
        # scope unwinds them
        with ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lafp-worker"
        ) as pool:
            try:
                while ready.remaining:
                    while len(pending) < self.max_workers:
                        admitted = self._admit(ready, len(pending), stats)
                        if admitted is None:
                            break
                        task, ready_at = admitted
                        future = pool.submit(self._on_pool_thread,
                                             task[0], stats, ready_at)
                        pending[future] = task
                        future.add_done_callback(done.put)
                    if pending:
                        future = done.get()
                        task = pending.pop(future)
                        future.result()  # re-raises the node's error
                        ready.release(task[0])
                        ready.complete(task)
            except BaseException:
                for future in pending:
                    future.cancel()
                raise

    def _on_pool_thread(self, node: Node, stats: ExecutionStats,
                        ready_at: Optional[float]) -> None:
        """:meth:`_execute_node` on a pool thread: the run's record
        bound and the owning session active, so ``count()``,
        ``current_session()`` and the per-session memory manager every
        :class:`~repro.memory.manager.TrackedBuffer` resolves are right
        inside backend calls."""
        with stats.bound():
            self.session.activate()
            try:
                return self._execute_node(node, stats, ready_at)
            finally:
                self.session.deactivate()
