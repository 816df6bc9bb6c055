"""Pluggable execution strategies (the scheduler subsystem).

Mirrors the engine layer: a :class:`SchedulerSpec` describes one
strategy (its factory), an :class:`ExecutorRegistry` maps names to
specs, and sessions pick a strategy of :data:`DEFAULT_EXECUTORS`
through the ``executor.strategy`` option -- the Dask split between a
collection protocol and swappable ``get`` functions, applied to the
LaFP task graph.  Every strategy drives every engine: on the Dask
engine the graph is already cut per partition
(:mod:`repro.core.optimizer.partitions`), so the pool strategies run
partitions in parallel.

There is one scheduling core (:mod:`repro.graph.scheduler.base`): the
:class:`~repro.graph.scheduler.base.ReadySet` state machine, one
admission rule (static-priority order, a free slot, one task at a time
under a memory budget), one release rule, one failure unwind.  A strategy is where an admitted
task runs -- its *submit seam* -- plus, for two of them, how nodes are
grouped into tasks:

- ``serial``   -- the inline seam, one node per task: the paper's
  single loop (section 2.6),
- ``fused``    -- the inline seam over linear-chain tasks,
- ``threaded`` -- the thread-pool seam,
- ``process``  -- the process-pool seam: fused chains shipped through
  the pickle seam, for CPU-bound operators the GIL serializes.

A scheduler belongs to one session, which builds one per collect
through :meth:`~repro.core.session.Session.scheduler`, the one
constructor.

The key of the ready heap is the memory-aware static ordering pass
(:mod:`repro.graph.scheduler.order`, ``executor.static_order``); with
the pass off every strategy falls back to node-id order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

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
    description: str = ""


class ExecutorRegistry(SpecRegistry[SchedulerSpec]):
    """Name -> :class:`SchedulerSpec` lookup; sessions create instances."""

    noun, unknown_noun = "strategy", "executor strategy"


#: The stock registry with the four shipped strategies.
DEFAULT_EXECUTORS = ExecutorRegistry([
    SchedulerSpec(
        "serial", SerialScheduler,
        description="one node at a time in topological order",
    ),
    SchedulerSpec(
        "threaded", ThreadedScheduler,
        description="the ready set driven over a thread pool",
    ),
    SchedulerSpec(
        "fused", FusedScheduler,
        description="serial over fused linear single-consumer chains",
    ),
    SchedulerSpec(
        "process", ProcessScheduler,
        description="fused chains shipped to a process pool via the "
                    "pickle seam; inline fallback for unpicklable tasks",
    ),
])


__all__ = [
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
