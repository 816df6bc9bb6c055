"""Task-graph tour: see what LaFP builds and what the optimizer does.

Run:  python examples/taskgraph_tour.py

Builds the task graph of the paper's Figure 3 program without executing
it, prints the DOT rendering (Figure 6), runs each optimizer rule
manually, and shows the rule report -- a debugging workflow for anyone
extending the optimizer.
"""

import tempfile

import numpy as np

import repro.lazyfatpandas.pandas as pd
from repro.core.optimizer import (
    eliminate_common_subexpressions,
    push_down_predicates,
    push_down_projections,
)
from repro.frame import DataFrame
from repro.graph import collect_subgraph, to_dot

# self-contained dataset
_csv = tempfile.mktemp(suffix=".csv")
_n = 1000
_rng = np.random.default_rng(1)
DataFrame(
    {
        "tpep_pickup_datetime": np.array(
            ["2024-02-%02d 09:00:00" % (i % 28 + 1) for i in range(_n)], dtype=object
        ),
        "passenger_count": _rng.integers(1, 5, _n),
        "fare_amount": np.round(_rng.normal(14, 8, _n), 2),
        "unused_a": np.array([f"x{i}" for i in range(_n)], dtype=object),
        "unused_b": np.array([f"y{i}" for i in range(_n)], dtype=object),
    }
).to_csv(_csv)

# An explicit session scopes the whole tour (no global state to reset).
_session = pd.Session(backend="pandas").activate()

# -- build Figure 3's graph lazily (no analyze(): pure runtime) ----------
df = pd.read_csv(_csv, parse_dates=["tpep_pickup_datetime"])
df["day"] = df.tpep_pickup_datetime.dt.dayofweek
filtered = df[df.fare_amount > 0]
result = filtered.groupby(["day"])["passenger_count"].sum()

print("=== task graph before optimization (Figure 6) ===")
print(to_dot([result.node]))

before_ops = [n.op for n in collect_subgraph([result.node])]
print(f"\nnodes before: {sorted(before_ops)}")

merged = eliminate_common_subexpressions([result.node])
swaps = push_down_predicates([result.node])
narrowed = push_down_projections([result.node])
print(f"\nCSE merged {merged} node(s)")
print(f"predicate pushdown performed {swaps} swap(s)")
print(f"projection pushdown narrowed {narrowed} read(s)")

scan_node = next(
    n for n in collect_subgraph([result.node]) if n.op == "scan"
)
print(f"the read's columns after optimization: {scan_node.args.get('columns')}")

print("\n=== task graph after optimization ===")
print(to_dot([result.node]))

print("\n=== the same plans, via explain() (raw vs optimized) ===")
print(result.explain())

print("\nresult of the optimized graph:")
print(result.compute())
