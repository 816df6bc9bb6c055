"""LaFP task graph (sections 2.5-2.6).

Nodes represent dataframe operations; an edge A -> B means *B depends on
A's result* (data dependency) or *B must run after A* (ordering edge, used
by lazy print).  The graph is built implicitly by the lazy wrapper objects
in :mod:`repro.core` and executed by a strategy from
:mod:`repro.graph.scheduler` (serial / threaded / fused / process /
async, selected via the ``executor.strategy`` session option): one
ready-set loop behind all five, which frees an intermediate result as
soon as its last consumer has run (section 2.6).
"""

from repro.graph.node import Node, OpSpec, OPS, register_op, series_used_columns
from repro.graph.taskgraph import (
    collect_subgraph,
    consumers_by_id,
    dependency_counts,
    initial_refcounts,
    needed_nodes,
    physical_plan,
    ready_nodes,
    to_dot,
    topological_order,
)
from repro.graph.explain import render_plan
from repro.graph.scheduler import (
    DEFAULT_EXECUTORS,
    ExecutionStats,
    ExecutorRegistry,
    Scheduler,
    SchedulerSpec,
)

__all__ = [
    "DEFAULT_EXECUTORS",
    "ExecutionStats",
    "ExecutorRegistry",
    "Node",
    "OPS",
    "OpSpec",
    "Scheduler",
    "SchedulerSpec",
    "collect_subgraph",
    "consumers_by_id",
    "dependency_counts",
    "initial_refcounts",
    "needed_nodes",
    "physical_plan",
    "ready_nodes",
    "register_op",
    "render_plan",
    "series_used_columns",
    "to_dot",
    "topological_order",
]
