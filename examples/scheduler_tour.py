"""Scheduler tour: pick an execution strategy, read the runtime stats.

Run:  python examples/scheduler_tour.py

Execution is a scheduler subsystem (`repro.graph.scheduler`): every
`collect()` looks the session's ``executor.strategy`` option up in the
fixed `STRATEGIES` table and runs one of three strategies --

- ``serial``   the paper's section-2.6 loop: one node at a time,
               refcount-released,
- ``threaded`` a ready-queue thread pool (``executor.max_workers``) that
               runs independent nodes concurrently, and one task at a
               time under a memory budget,
- ``fused``    a pre-pass that fuses linear single-consumer chains into
               one task to cut scheduling overhead on deep pipelines.

The tour runs all three.  Each run records per-node wall time, queue
wait, and bytes into an `ExecutionStats` surfaced through
``explain(stats=True)``.
"""

import tempfile

import numpy as np

import repro.lazyfatpandas.pandas as pd
from repro.core.session import Session
from repro.frame import DataFrame

# self-contained dataset
_csv = tempfile.mktemp(suffix=".csv")
_n = 5_000
_rng = np.random.default_rng(7)
DataFrame(
    {
        "x": _rng.integers(-50, 50, _n),
        "y": _rng.integers(0, 9, _n),
        "fare": np.round(np.abs(_rng.normal(14, 8, _n)), 2),
    }
).to_csv(_csv)


def pipeline():
    """A small fan-out: one read feeding two independent aggregates."""
    df = pd.read_csv(_csv)
    df = df[df.x > 0]
    df["z"] = df.fare * 2
    return df.groupby(["y"])["z"].sum(), df.z.mean()


# -- 1. strategy selection is a per-session option --------------------------

for strategy in ("serial", "threaded", "fused"):
    with Session(backend="pandas",
                 options={"executor.strategy": strategy,
                          "executor.max_workers": 4}) as session:
        by_group, avg = pipeline()
        value = float(avg.collect())
        stats = session.last_execution_stats
        print(f"{strategy:>8}: mean(z)={value:.3f}  "
              f"nodes={stats.nodes_executed}  "
              f"wall={stats.wall_seconds * 1e3:.2f}ms  "
              f"fused_chains={stats.fused_chains}")

# -- 2. option_context switches strategy for one collect --------------------

with Session(backend="pandas") as session:
    by_group, avg = pipeline()
    with pd.option_context("executor.strategy", "threaded"):
        by_group.collect()
    print("\nper-collect override ran as:",
          session.last_execution_stats.strategy)

    # -- 3. explain(stats=True): the plan plus last run's node timings ------
    print()
    print(by_group.explain(stats=True))

# -- 4. every engine runs every strategy ------------------------------------
# The Dask engine's plan is cut per partition, so the thread pool runs its
# partitions like any other independent nodes.

with Session(backend="dask",
             options={"executor.strategy": "threaded"}) as session:
    _, avg = pipeline()
    avg.collect()
    stats = session.last_execution_stats
    print(f"\ndask + threaded: ran as {stats.strategy} "
          f"(nodes cut per partition: "
          f"{session.last_optimize_report['partitions_cut']})")
