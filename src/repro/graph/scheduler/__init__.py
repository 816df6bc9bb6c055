"""Pluggable execution strategies (the scheduler subsystem).

Mirrors the engine layer: a :class:`SchedulerSpec` describes one
strategy (its factory plus the capability facts the session branches
on), an :class:`ExecutorRegistry` maps names to specs, and sessions pick
a strategy through the ``executor.strategy`` option -- the Dask split
between a collection protocol and swappable ``get`` functions, applied
to the LaFP task graph.

There is one scheduling core (:mod:`repro.graph.scheduler.base`): the
:class:`~repro.graph.scheduler.base.ReadySet` state machine, one
admission rule (static-priority order, a free slot, one task at a time
under a memory budget), one release rule, one failure unwind.  A strategy is where an admitted
task runs -- its *submit seam* -- plus, for two of them, how nodes are
grouped into tasks:

- ``serial``   -- the inline seam, one node per task: the paper's
  single loop (section 2.6),
- ``fused``    -- the inline seam over linear-chain tasks,
- ``threaded`` -- the thread-pool seam (needs an engine with
  ``supports_parallel_apply``, as do the next two),
- ``process``  -- the process-pool seam: fused chains shipped through
  the pickle seam, for CPU-bound operators the GIL serializes,
- ``async``    -- the event-loop seam, with the awaitable
  ``execute_async`` a server needs to multiplex many concurrent
  collects over one scheduler.

The key of the ready heap is the memory-aware static ordering pass
(:mod:`repro.graph.scheduler.order`, ``executor.static_order``); with
the pass off every strategy falls back to node-id order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.graph.scheduler.async_ import AsyncScheduler
from repro.graph.scheduler.base import ExecutionError, Scheduler
from repro.graph.scheduler.fused import FusedScheduler, fuse_linear_chains
from repro.graph.scheduler.process import ProcessScheduler
from repro.graph.scheduler.serial import SerialScheduler
from repro.graph.scheduler.stats import ExecutionStats, NodeStat
from repro.graph.scheduler.threaded import ThreadedScheduler
from repro.registry import SpecRegistry


@dataclasses.dataclass(frozen=True)
class SchedulerSpec:
    """Static description of one execution strategy."""

    name: str
    factory: Callable[..., Scheduler]
    #: runs backend.apply concurrently; the session falls back to the
    #: serial strategy on engines without ``supports_parallel_apply``.
    requires_parallel_apply: bool = False
    description: str = ""

    def create(self, backend, **kwargs) -> Scheduler:
        return self.factory(backend, **kwargs)


class ExecutorRegistry(SpecRegistry[SchedulerSpec]):
    """Name -> :class:`SchedulerSpec` lookup; sessions create instances."""

    noun, unknown_noun = "strategy", "executor strategy"

    def create(self, name: str, backend, **kwargs) -> Scheduler:
        """A fresh scheduler instance for one execution."""
        return self.spec(name).create(backend, **kwargs)


#: The stock registry with the five shipped strategies.
DEFAULT_EXECUTORS = ExecutorRegistry([
    SchedulerSpec(
        "serial", SerialScheduler,
        description="one node at a time in topological order",
    ),
    SchedulerSpec(
        "threaded", ThreadedScheduler,
        requires_parallel_apply=True,
        description="the ready set driven over a thread pool",
    ),
    SchedulerSpec(
        "fused", FusedScheduler,
        description="serial over fused linear single-consumer chains",
    ),
    SchedulerSpec(
        "process", ProcessScheduler,
        requires_parallel_apply=True,
        description="fused chains shipped to a process pool via the "
                    "pickle seam; inline fallback for unpicklable tasks",
    ),
    SchedulerSpec(
        "async", AsyncScheduler,
        requires_parallel_apply=True,
        description="asyncio event-loop scheduling with an awaitable "
                    "execute_async for concurrent collects",
    ),
])


__all__ = [
    "AsyncScheduler",
    "DEFAULT_EXECUTORS",
    "ExecutionError",
    "ExecutionStats",
    "ExecutorRegistry",
    "FusedScheduler",
    "NodeStat",
    "ProcessScheduler",
    "Scheduler",
    "SchedulerSpec",
    "SerialScheduler",
    "ThreadedScheduler",
    "fuse_linear_chains",
]
