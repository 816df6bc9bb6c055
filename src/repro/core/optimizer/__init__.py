"""Runtime task-graph optimizer (section 3).

``optimize(roots, session, live_nodes)`` runs the rule pipeline in a fixed
order chosen so each rule sees the previous rule's output:

1. **common-subexpression elimination** -- structurally identical nodes
   merge, so shared work is recognized before anything moves;
2. **predicate pushdown** (section 3.2) -- filters move toward sources
   past safe points;
3. **projection pushdown** -- required-column inference narrows
   the ``scan`` leaves to what the run reads, the input edges of row
   copies and merges to what their readers read, and a sort + head to
   a top-n;
4. **metadata optimization** (section 3.6) -- dtype hints and safe
   ``category`` encoding from the metastore;
5. **persistence marking** (section 3.5) -- the nodes of the plan that
   ``live_df`` expressions will read are marked ``persist``;
6. **the partition cut** (section 2.6) -- behind one size gate, the
   plan is cut per partition as the engine's policy says
   (:mod:`repro.core.optimizer.shuffle`).

The plan is rewritten in place and is the caller's to give away: a
session hands over a private copy of the user's graph, never the graph.

Each rule honours its per-session option toggle
(``optimizer.predicate_pushdown``, ``optimizer.common_subexpression``,
``optimizer.projection_pushdown``, ``optimizer.metadata``,
``executor.cache``), which ``option_context()`` and the ablation
benchmarks flip.
"""

from repro.core.optimizer.pipeline import optimize
from repro.core.optimizer.predicate_pushdown import push_down_predicates
from repro.core.optimizer.common_subexpr import (
    eliminate_common_subexpressions,
    pin_frontier,
)
from repro.core.optimizer.projection import push_down_projections
from repro.core.optimizer.metadata_opt import apply_metadata_hints

__all__ = [
    "apply_metadata_hints",
    "eliminate_common_subexpressions",
    "pin_frontier",
    "optimize",
    "push_down_predicates",
    "push_down_projections",
]
