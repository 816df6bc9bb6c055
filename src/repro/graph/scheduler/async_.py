"""The async strategy: the event-loop seam, for concurrent collects.

ROADMAP item 3 (a multi-tenant serving layer) needs a seam where many
concurrent ``collect()`` requests multiplex over one scheduler without
a coordination thread per request.  This strategy provides it: the
shared ready set is driven from a coroutine (``asyncio.wait`` where the
pool strategies block on their completion queue), nodes execute in the
loop's default thread-pool executor, and at most
``executor.max_workers`` are in flight -- one, under a memory budget.

Two entry points:

- :meth:`Scheduler.execute` (the synchronous contract every strategy
  honours) spins up a private event loop per call -- sessions use this
  transparently when ``executor.strategy`` is ``"async"``.
- :meth:`AsyncScheduler.execute_async` is a coroutine for callers that
  already own a loop: a server awaits many of these concurrently on
  *one* scheduler instance, and the per-execution state (ready set,
  stats) is local to each call -- only the advisory estimate/priority
  maps are shared, and those merge by process-unique node id.
  ``last_stats`` reflects the most recently *started* execution;
  concurrent servers should read each call's stats object instead.

Admission is the shared rule (:meth:`Scheduler._admit`), asked only when
a slot frees: turning every ready node into a task up front would queue
later, *higher*-priority nodes behind earlier FIFO waiters and break the
memory-aware order under contention.  The rule's memory half is per
execution: concurrent ``execute_async`` calls under one budget each keep
one task in flight, but do not wait for each other.  Release and
readiness run on the loop thread after each completion, so they need no
locks.

Requires an engine with ``supports_parallel_apply`` (concurrent
``backend.apply`` calls); sessions fall back to serial otherwise.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Sequence

from repro.graph.node import Node
from repro.graph.scheduler.base import ReadySet, Scheduler, Task
from repro.graph.scheduler.stats import ExecutionStats


class AsyncScheduler(Scheduler):
    """Event-loop scheduling; nodes run in the loop's thread pool."""

    name = "async"
    prefetches_ranges = True
    default_workers = 4

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._arun(ready, stats))
        finally:
            # join the pool threads on failure too: a thread that has
            # handed over its node's error still holds the traceback --
            # and through it the node's inputs -- until it loops round
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    async def execute_async(self, roots: Sequence[Node]) -> List[object]:
        """Awaitable :meth:`~Scheduler.execute`: compute ``roots`` on
        the *current* event loop.  Safe to await concurrently on one
        scheduler instance; see the module docstring."""
        with self._running(roots) as (ready, stats, started):
            await self._arun(ready, stats)
            return self._results(roots, started)

    async def _arun(self, ready: ReadySet, stats: ExecutionStats) -> None:
        loop = asyncio.get_running_loop()
        pending: Dict[asyncio.Future, Task] = {}
        try:
            while ready.remaining:
                while len(pending) < self.max_workers:
                    admitted = self._admit(ready, len(pending), stats)
                    if admitted is None:
                        break
                    task, ready_at = admitted
                    pending[loop.run_in_executor(
                        None, self._on_pool_thread,
                        task[0], stats, ready_at,
                    )] = task
                if pending:
                    finished, _ = await asyncio.wait(
                        pending, return_when=asyncio.FIRST_COMPLETED
                    )
                    for future in finished:
                        task = pending.pop(future)
                        future.result()  # re-raises the node's error
                        self._finish(ready, task)
        except BaseException:
            # A node failed (or the caller cancelled us): executor
            # threads cannot be interrupted, so let the running nodes
            # finish before the run scope drops their results.
            await asyncio.gather(*pending, return_exceptions=True)
            raise
