"""The size gate of the partition-wise lowering.

Section 2.6 chooses how to execute from whether the data fits in
memory.  Here that choice is one gate in front of the one lowering,
the partition cut (:mod:`repro.core.optimizer.partitions`, dask-expr's
Merge -> Blockwise/Shuffle/broadcast lowering is the pattern):

- the **limit** is ``optimizer.shuffle_threshold_bytes`` if set, else
  the session's ``memory.budget`` headroom; ``optimizer.shuffle=False``
  means no limit;
- the **policy** is the engine's
  :attr:`~repro.backends.base.Backend.out_of_core`: the Dask
  engine cuts every plan, the limit only sizing its broadcasts and
  buckets; pandas and Modin cut only the scans over the limit that
  feed a merge or a group-by, and nothing at all with no limit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.optimizer.partitions import cut_partitions
from repro.graph.node import Node
from repro.graph.taskgraph import ConsumerIndex


def lower_shuffle_nodes(
    roots: List[Node],
    session,
    live_nodes: Optional[List[Node]] = None,
    index: Optional[ConsumerIndex] = None,
) -> Tuple[int, int]:
    """Cut the plan under ``roots`` as the engine's policy and the size
    limit say; returns the merges and group-bys lowered over a scan
    bigger than the limit, and the nodes cut.  ``live_nodes`` is not
    read: what a run keeps for live frames it hands over among the
    roots, marked ``persist``."""
    opts = session.options
    limit = None
    if opts.get("optimizer.shuffle"):
        limit = opts.get("optimizer.shuffle_threshold_bytes")
        if limit is None and session.memory is not None:
            limit = session.memory.headroom()
        if limit is not None and int(limit) <= 0:
            limit = None
    every_scan = session.backend.out_of_core
    if limit is None and not every_scan:
        return 0, 0
    limit = None if limit is None else int(limit)
    return cut_partitions(roots, session, limit, every_scan, index)
