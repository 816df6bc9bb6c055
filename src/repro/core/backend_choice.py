"""Cost-based automatic backend selection (the paper's future work).

Sections 2.6 and 3.6 describe the plan: "decisions on what framework to
use depend on whether the dataframes can fit in memory, which can be
inferred from the metadata statistics", plus row-order dependence.  This
module implements it:

- estimate the in-memory footprint of each ``scan`` leaf by asking its
  source (:meth:`~repro.io.source.DataSource.estimated_bytes`: the
  metastore's per-column widths x rows over the columns and partitions
  the scan will actually read) -- the same number the scheduler's
  static order ranks branches by,
- model each backend's memory behaviour (pandas and Modin: eager
  whole-frame with a working-copy factor -- through the one scan leaf
  Modin holds what pandas holds, re-split; Dask: bounded by partitions
  + spill),
- respect *order sensitivity*: programs using order-dependent operations
  (sort + positional access) must not run on Dask (section 5.1's caveat),
- pick the fastest backend that fits.

``choose_backend_for_roots`` works on a LaFP task graph, so the choice
can be made at the first ``compute()`` with full knowledge of the reads
and their (possibly projection-narrowed) column sets.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.graph.node import Node
from repro.graph.scheduler.estimates import estimate_scan_bytes
from repro.graph.taskgraph import collect_subgraph

#: eager engines hold the source frame plus roughly one working copy.
EAGER_WORKING_FACTOR = 2.0
#: operations whose results depend on global row order.
ORDER_SENSITIVE_OPS = frozenset(
    {"sort_values", "sort_index", "head", "tail", "nlargest", "nsmallest"})


@dataclasses.dataclass
class BackendEstimate:
    """Cost-model output for one backend."""

    backend: str
    bytes_needed: int
    fits: bool
    order_safe: bool

    @property
    def viable(self) -> bool:
        return self.fits and self.order_safe


def order_sensitive(roots: Sequence[Node]) -> bool:
    """Does the graph rely on global row order anywhere?"""
    return any(
        n.op in ORDER_SENSITIVE_OPS for n in collect_subgraph(list(roots))
    )


def choose_backend_for_roots(
    roots: Sequence[Node],
    metastore,
    budget_bytes: Optional[int],
) -> List[BackendEstimate]:
    """Rank backends for this computation; first viable entry wins.

    Without a budget or metadata the ranking degrades gracefully to the
    paper's default order (pandas fastest when everything fits is
    unknowable, so the lazy default wins: dask).
    """
    scans = [n for n in collect_subgraph(list(roots)) if n.op == "scan"]
    sizes = [estimate_scan_bytes(n, metastore) for n in scans]
    sensitive = order_sensitive(roots)

    if (budget_bytes is None or metastore is None or not scans
            or any(b is None for b in sizes)):
        # no basis for a cost decision: prefer the safe lazy default,
        # falling back to pandas when row order matters.
        default = "pandas" if sensitive else "dask"
        return [BackendEstimate(default, 0, True, True)]

    eager_bytes = int(sum(sizes) * EAGER_WORKING_FACTOR)
    fits = eager_bytes <= budget_bytes
    return [
        BackendEstimate("pandas", eager_bytes, fits, True),
        BackendEstimate("modin", eager_bytes, fits, True),
        # Dask needs only a few partitions resident; treat as always
        # fitting, but unusable for order-sensitive programs.
        BackendEstimate("dask", 0, True, not sensitive),
    ]


def pick(estimates: List[BackendEstimate]) -> str:
    """First viable backend in preference order (fastest first)."""
    for estimate in estimates:
        if estimate.viable:
            return estimate.backend
    # nothing fits: the out-of-core engine is the only hope, order be damned
    return "dask"


def auto_select(session, roots: Sequence[Node]) -> str:
    """Choose and install a backend on ``session`` for this computation."""
    estimates = choose_backend_for_roots(
        roots, session.metastore, session.memory.budget
    )
    backend = pick(estimates)
    session.set_backend(backend)
    return backend
