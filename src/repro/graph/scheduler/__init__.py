"""The execution strategies (the scheduler subsystem).

:data:`STRATEGIES` maps each strategy's name to its :class:`Scheduler`
class, and a session picks one through the ``executor.strategy``
option -- the Dask split between a collection protocol and swappable
``get`` functions, applied to the LaFP task graph.  Every strategy
drives every engine: on the Dask engine the graph is already cut per
partition (:mod:`repro.core.optimizer.partitions`), so the threaded
strategy runs partitions in parallel.

There is one scheduling core (:mod:`repro.graph.scheduler.base`): the
:class:`~repro.graph.scheduler.base.ReadySet` state machine, one
admission rule (static-priority order, a free slot, one task at a time
under a memory budget), one release rule, one failure unwind.  A
strategy is where an admitted task runs -- its *submit seam* -- plus,
for ``fused``, how nodes are grouped into tasks:

- ``serial``   -- the inline seam, one node per task: the paper's
  single loop (section 2.6),
- ``fused``    -- the inline seam over linear-chain tasks,
- ``threaded`` -- the thread-pool seam.

A scheduler belongs to one session, which builds one per collect
through :meth:`~repro.core.session.Session.scheduler`, the one
constructor.

The key of the ready heap is the memory-aware static ordering pass
(:mod:`repro.graph.scheduler.order`, ``executor.static_order``); with
the pass off every strategy falls back to node-id order.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.graph.scheduler.base import ExecutionError, Scheduler
from repro.graph.scheduler.fused import FusedScheduler, fuse_linear_chains
from repro.graph.scheduler.serial import SerialScheduler
from repro.graph.scheduler.stats import ExecutionStats, NodeStat
from repro.graph.scheduler.threaded import ThreadedScheduler

#: strategy name (the ``executor.strategy`` option) -> scheduler class.
STRATEGIES = MappingProxyType({
    scheduler.name: scheduler
    for scheduler in (SerialScheduler, ThreadedScheduler, FusedScheduler)
})


__all__ = [
    "ExecutionError",
    "ExecutionStats",
    "FusedScheduler",
    "NodeStat",
    "STRATEGIES",
    "Scheduler",
    "SerialScheduler",
    "ThreadedScheduler",
    "fuse_linear_chains",
]
