"""The threaded strategy: the thread-pool seam.

Independent task-graph nodes run concurrently on a worker pool sized by
``executor.max_workers``.  The calling thread coordinates through the
shared ``concurrent.futures`` driver (:meth:`Scheduler._drive_pool`):
it admits ready tasks in the one admission order (:meth:`Scheduler.
_admit`), waits for a completion, and releases inputs and propagates
readiness itself -- workers only run ``backend.apply`` and set their
node's result, so the ready set needs no lock.  Under a memory budget
the one memory rule keeps a single task in flight, so the pool then
runs the plan exactly as ``serial`` would; unbudgeted, up to
``max_workers`` overlap.  At least one node is always in flight, so
progress is guaranteed.

Worker calls go through :meth:`Scheduler._on_pool_thread`, so buffers
allocated mid-node charge the owning session's memory manager and the
work is counted into the run's record.

Requires an engine whose :class:`~repro.backends.engine.EngineSpec`
declares ``supports_parallel_apply``; sessions fall back to the serial
strategy otherwise (lazy simulators build expression graphs where
per-node parallelism buys nothing and shared stores are not
thread-safe).
"""

from __future__ import annotations

from repro.graph.scheduler.base import ReadySet, Scheduler
from repro.graph.scheduler.stats import ExecutionStats


class ThreadedScheduler(Scheduler):
    """Ready-set scheduling over a thread pool."""

    name = "threaded"
    prefetches_ranges = True
    default_workers = 4

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        from concurrent.futures import ThreadPoolExecutor

        def submit(task, ready_at):
            return pool.submit(self._on_pool_thread,
                               task[0], stats, ready_at)

        def collect(future, pending):
            task = pending.pop(future)[0]
            future.result()  # re-raises the node's error
            self._finish(ready, task)

        # leaving the block joins the workers: when a node failed, the
        # others have set (or not set) their results before the run
        # scope unwinds them
        with ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lafp-worker"
        ) as pool:
            self._drive_pool(ready, stats, submit, collect)
