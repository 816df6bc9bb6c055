"""The fused strategy: the inline seam over linear-chain tasks.

The paper's deep-chain workloads (long pipelines of row-preserving
transforms) pay per-node ready-set bookkeeping on every link.  This
strategy groups *linear single-consumer chains* -- maximal runs
``a -> b -> c`` where each link is its successor's only dependency and
each node's only consumer is its successor -- into one task each, then
runs tasks exactly as the serial strategy does.  Within a chain no queue
bookkeeping happens between links, and release still follows the
section-2.6 refcount rule link by link, so results and peaks are
bit-identical to the serial strategy.  (Measured on the dispatch-bound
``interactive_session`` benchmark workload the saving is under 1 %:
fusion is a task-grouping choice, not a second loop.)

Fusion never crosses roots, persisted nodes, cached nodes, or fan-out/
fan-in points (a diamond's branches keep their own tasks), and counts
ordering edges as dependencies, so lazy prints cannot be reordered.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.graph.node import Node
from repro.graph.scheduler.base import Task
from repro.graph.scheduler.serial import SerialScheduler
from repro.graph.scheduler.stats import ExecutionStats
from repro.graph.taskgraph import consumers_by_id


def fuse_linear_chains(
    order: List[Node], root_ids: set,
    consumers: Optional[Dict[int, List[Node]]] = None,
) -> List[List[Node]]:
    """Group ``order`` into tasks: chains of length >= 2 plus singletons.

    Returned tasks are in executable order (each task's external
    dependencies are satisfied by earlier tasks): a chain inherits its
    head's topological position, and every non-head chain member depends
    only on its predecessor in the same chain by construction.
    ``consumers`` is ``consumers_by_id(order)`` when the caller has it.
    """
    in_graph = {node.id for node in order}
    if consumers is None:
        consumers = consumers_by_id(order)
    successor: Dict[int, Node] = {}
    has_predecessor: Dict[int, bool] = {}
    for node in order:
        if node.computed:
            continue
        node_consumers = consumers.get(node.id, [])
        if len(node_consumers) != 1:
            continue
        nxt = node_consumers[0]
        # ``nxt`` must hang off this node alone (counting ordering edges);
        # otherwise running the chain as one task could start ``nxt``
        # before an unrelated dependency finished.
        if any(d is not node and d.id in in_graph for d in nxt.all_deps()):
            continue
        # Roots and persisted nodes keep their results; fusing them is
        # legal but keeps the bookkeeping simpler if we break chains there.
        if node.id in root_ids or node.persist:
            continue
        successor[node.id] = nxt
        has_predecessor[nxt.id] = True

    tasks: List[List[Node]] = []
    absorbed = set()
    for node in order:
        if node.id in absorbed:
            continue
        if node.id in successor and not has_predecessor.get(node.id):
            chain = [node]
            while chain[-1].id in successor:
                nxt = successor[chain[-1].id]
                chain.append(nxt)
                absorbed.add(nxt.id)
            tasks.append(chain)
        elif not has_predecessor.get(node.id):
            tasks.append([node])
    return tasks


class FusedScheduler(SerialScheduler):
    """Serial execution over fused linear chains."""

    name = "fused"

    def _tasks(self, order: List[Node], root_ids: Set[int], consumers,
               stats: ExecutionStats) -> List[Task]:
        tasks = fuse_linear_chains(order, root_ids, consumers)
        for chain in tasks:
            if len(chain) > 1:
                stats.add(fused_chains=1, fused_nodes=len(chain))
        return tasks
