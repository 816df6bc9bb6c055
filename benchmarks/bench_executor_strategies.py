"""Executor-strategy benchmark: the memory-aware static order.

A wide reduction whose scan nodes are all created before any of the
reductions, so plain node-id order runs every scan before releasing
anything (the pessimal level order).  The memory-aware pass of
``graph/scheduler/order.py`` finishes one branch at a time instead; the
benchmark asserts the estimated peak live bytes drop measurably for
both the serial and threaded strategies, and reports the
manager-measured peak alongside.

Emits JSON like the other benches -- ``LAFP_BENCH_JSON`` names the
output path and the report merges in as an ``executor_strategies``
section of the ``BENCH_*`` trajectory.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

from conftest import print_table

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session

ROWS = int(os.environ.get("LAFP_BENCH_ROWS", "3000"))
BRANCHES = 8


@pytest.fixture(scope="module")
def dataset():
    """One CSV per branch: identical scans of one file would be
    deduplicated by the optimizer into a single shared node, and the
    fan would silently collapse to one pipeline."""
    root = tempfile.mkdtemp(prefix="lafp-exec-bench-")
    rng = np.random.RandomState(7)
    paths = []
    for b in range(2 * BRANCHES):
        path = os.path.join(root, f"part{b}.csv")
        with open(path, "w") as f:
            f.write("k,v,s\n")
            for i in range(ROWS):
                f.write(
                    f"{rng.randint(0, 50)},{i},w{b}-{i % 97}-{'y' * 12}\n"
                )
        paths.append(path)
    yield paths
    shutil.rmtree(root, ignore_errors=True)


def _wide_reduction(paths):
    """BRANCHES asymmetric join pairs, built to be pessimal for both
    naive orders.  Every scan node is created before any reduction, so
    node-id order (Kahn, id as priority) runs all 2*BRANCHES scans
    before releasing anything -- every table resident at once.  Each
    merge lists the full scan as its *last* dependency, so the
    construction-order DFS (a LIFO stack: last dep runs first) holds
    the full table while the reduction side's scan runs -- two tables
    resident per pair.  The estimate-aware order flips each pair and
    finishes branch by branch: one table resident."""
    tiny_scans = [
        lfp.scan_csv(paths[2 * b], partition_bytes=1 << 30)
        for b in range(BRANCHES)
    ]
    big_scans = [
        lfp.scan_csv(paths[2 * b + 1], partition_bytes=1 << 30)
        for b in range(BRANCHES)
    ]
    return lfp.concat([
        tiny.head(3).merge(big, on="k", how="inner").head(5)
        for tiny, big in zip(tiny_scans, big_scans)
    ])


def _peak_for(path, strategy, static_order):
    with Session(backend="pandas", options={
        "executor.strategy": strategy,
        "executor.max_workers": 2,
        "executor.static_order": static_order,
    }) as session:
        _wide_reduction(path).collect()
        stats = session.last_execution_stats.to_dict()
    return {
        "strategy": strategy,
        "static_order": static_order,
        "estimated_peak_bytes": stats["estimated_peak_bytes"],
        "manager_peak_bytes": stats["manager_peak_bytes"],
    }


@pytest.mark.bench
def test_bench_executor_strategies(dataset):
    peaks = [
        _peak_for(dataset, strategy, static_order)
        for strategy in ("serial", "threaded")
        for static_order in (False, True)
    ]
    # The node-id baseline: Kahn with the id as priority -- what the
    # threaded heap degrades to without static priorities (its ready
    # heap tie-breaks on the node id).  On this plan it runs all
    # 2*BRANCHES scans before any reduction.  Simulated over the same
    # plan and byte estimates the schedulers use.
    from repro.graph.scheduler.estimates import estimate_node_bytes
    from repro.graph.scheduler.order import (
        priority_topological_order,
        simulate_peak_bytes,
        static_priorities,
    )
    from repro.graph.taskgraph import topological_order

    with Session(backend="pandas") as session:
        root = _wide_reduction(dataset)._node
        order = topological_order([root])
        estimates = estimate_node_bytes(order, session)
    node_id_peak = simulate_peak_bytes(
        priority_topological_order(order, {n.id: n.id for n in order}),
        estimates, {root.id},
    )
    static_peak = simulate_peak_bytes(
        priority_topological_order(
            order, static_priorities(order, estimates)
        ),
        estimates, {root.id},
    )
    reductions = {}
    for strategy in ("serial", "threaded"):
        dfs_order, static = [
            p for p in peaks if p["strategy"] == strategy
        ]
        # sanity: the static order is never worse than the default DFS
        assert (static["estimated_peak_bytes"]
                <= dfs_order["estimated_peak_bytes"])
        # the acceptance bar: each strategy's static-order estimated
        # peak must measurably beat node-id order (deterministic --
        # these are estimate simulations, not timings)
        reductions[strategy] = (
            static["estimated_peak_bytes"] / node_id_peak
        )
        assert reductions[strategy] <= 0.6, (
            f"{strategy}: static order peak "
            f"{reductions[strategy]:.2f}x of node-id order"
        )
    static_vs_node_id = static_peak / node_id_peak

    report = {
        "rows": ROWS,
        "branches": BRANCHES,
        "static_vs_node_id_by_strategy": reductions,
        "static_vs_node_id_order": static_vs_node_id,
        "node_id_order_peak_bytes": node_id_peak,
        "static_order_peak_bytes": static_peak,
        "peaks": peaks,
    }

    print_table(
        f"Static ordering: {BRANCHES}-branch wide reduction",
        ["strategy", "order", "est peak B", "manager peak B"],
        [
            [
                p["strategy"],
                "static" if p["static_order"] else "node-id",
                p["estimated_peak_bytes"],
                p["manager_peak_bytes"],
            ]
            for p in peaks
        ],
    )
    print(
        f"static vs node-id order (est peak): {static_vs_node_id:.2f}x "
        f"({static_peak} vs {node_id_peak} bytes)"
    )

    out_path = os.environ.get("LAFP_BENCH_JSON")
    if out_path:
        trajectory = {}
        if os.path.exists(out_path):
            try:
                with open(out_path) as f:
                    loaded = json.load(f)
                if isinstance(loaded, dict):
                    trajectory = loaded
            except ValueError:
                pass
        trajectory["executor_strategies"] = report
        with open(out_path, "w") as f:
            f.write(json.dumps(trajectory, indent=2) + "\n")
    else:
        print(json.dumps(report, indent=2))
