"""Shuffle-join benchmark: out-of-core merge under a halved budget.

The shuffle subsystem's payoff in three numbers, over a left table whose
in-memory size is measured first so the budget can be pinned to exactly
half of it (the dataset is then provably >= 2x ``memory.budget``):

- *in-memory* -- no budget, no lowering: the baseline merge.
- *shuffle* -- ``memory.budget`` = half the table, lowering forced: both
  sides hash-partition into spillable buckets, bucket pairs merge
  independently, and the run must complete (the in-memory path cannot)
  with a bit-identical result.
- *broadcast* -- the right side shrunk to a handful of rows: the
  lowering skips the shuffle and merges each left partition against
  the gathered right side.  The acceptance bar: within 1.2x of the
  in-memory join.

A groupby.agg("nunique") leg runs the bucketed holistic path under the
same halved budget, completing the paper-style claim that both merge
and groupby work out-of-core.

Correctness asserts come first; timing assertions are gated on
``PERF_ASSERT_MIN_ROWS`` so the CI smoke leg (tiny ``LAFP_BENCH_ROWS``)
only checks results.  Emits JSON like ``bench_scan_pushdown.py`` --
``LAFP_BENCH_JSON`` names the output path, and when that file already
holds a ``BENCH_*`` trajectory the report is merged in as a
``shuffle_join`` section instead of overwriting it.
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from conftest import print_table

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session

ROWS = int(os.environ.get("LAFP_BENCH_ROWS", "3000"))
LEFT_ROWS = ROWS * 4
N_PARTITIONS = 12
REPEATS = 3
#: below this size per-collect fixed overheads drown the differences;
#: the smoke leg runs tiny and only checks correctness.
PERF_ASSERT_MIN_ROWS = 2000


@pytest.fixture(scope="module")
def datasets():
    """One wide left table plus two right sides: a broadcastable
    handful of rows and a 308-row table too big for the fast path whose
    keys mostly miss (low selectivity keeps the join output well under
    the halved budget)."""
    root = tempfile.mkdtemp(prefix="lafp-shuffle-bench-")
    rng = np.random.RandomState(0)
    left = os.path.join(root, "left.csv")
    with open(left, "w") as f:
        f.write("k,v,s\n")
        for i in range(LEFT_ROWS):
            f.write(f"{rng.randint(0, 40)},{i},s{i % 7}-{'x' * 16}\n")
    tiny = os.path.join(root, "tiny.csv")
    with open(tiny, "w") as f:
        f.write("k,w\n")
        for k in range(0, 20, 2):
            f.write(f"{k},{k * 10}\n")
    rightbig = os.path.join(root, "rightbig.csv")
    with open(rightbig, "w") as f:
        f.write("k,w\n")
        for i in range(300):
            f.write(f"{1000 + i},{i}\n")
        for i in range(8):
            f.write(f"{i},{i * 10}\n")
    yield {
        "left": left,
        "tiny": tiny,
        "rightbig": rightbig,
        "partition_bytes": max(2048, os.path.getsize(left) // N_PARTITIONS),
    }
    shutil.rmtree(root, ignore_errors=True)


def _join(datasets, right):
    left = lfp.scan_csv(
        datasets["left"], partition_bytes=datasets["partition_bytes"]
    )
    return left.merge(
        lfp.scan_csv(datasets[right], partition_bytes=512),
        on="k", how="inner",
    )


def _measure(pipeline, options, label):
    seconds = []
    frame = None
    stats = None
    for _ in range(REPEATS):
        with Session(backend="pandas", options=options) as session:
            started = time.perf_counter()
            frame = pipeline().collect()
            seconds.append(time.perf_counter() - started)
            stats = session.last_execution_stats.to_dict()
    return {
        "mode": label,
        "best_seconds": min(seconds),
        "mean_seconds": sum(seconds) / len(seconds),
        "result_rows": len(frame),
        "bytes_spilled": stats["bytes_spilled"],
        "shuffle_partitions": stats["shuffle_partitions"],
        "broadcast_joins": stats["broadcast_joins"],
    }, frame


def _frames_identical(a, b) -> bool:
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    return all(
        np.array_equal(a.column(c).to_array(), b.column(c).to_array())
        for c in a.columns
    )


def _frame_bytes(frame) -> int:
    return sum(frame.column(c).nbytes for c in frame.columns)


@pytest.mark.bench
def test_bench_shuffle_join(datasets):
    # the budget is pinned to half the measured in-memory table size,
    # so "dataset >= 2x memory.budget" holds by construction
    with Session(backend="pandas"):
        left_bytes = _frame_bytes(lfp.scan_csv(datasets["left"]).collect())
    # the floor covers scale-independent overheads (bucket templates,
    # in-flight partitions) when the smoke leg shrinks the table below
    # them; inert at the default size, where table/2 dominates
    budget = max(left_bytes // 2, 90_000)
    shuffle_options = {
        "memory.budget": budget,
        "optimizer.shuffle_threshold_bytes": 100,
        "executor.strategy": "threaded",
    }

    inmem, inmem_frame = _measure(
        lambda: _join(datasets, "rightbig"), {}, "in-memory")
    shuffle, shuffle_frame = _measure(
        lambda: _join(datasets, "rightbig"), shuffle_options, "shuffle")
    inmem_small, inmem_small_frame = _measure(
        lambda: _join(datasets, "tiny"), {}, "in-memory small right")
    broadcast, broadcast_frame = _measure(
        lambda: _join(datasets, "tiny"),
        {"optimizer.shuffle_threshold_bytes": 2000}, "broadcast")

    # correctness first: lowering must be invisible in the data
    assert _frames_identical(inmem_frame, shuffle_frame)
    assert _frames_identical(inmem_small_frame, broadcast_frame)
    assert shuffle["bytes_spilled"] > 0
    assert shuffle["shuffle_partitions"] > 0
    assert broadcast["broadcast_joins"] == 1
    assert broadcast["bytes_spilled"] == 0

    # the out-of-core groupby leg: holistic agg under the same budget
    def grouped():
        return lfp.scan_csv(
            datasets["left"],
            partition_bytes=datasets["partition_bytes"],
        ).groupby("k")["s"].agg("nunique")

    with Session(backend="pandas") as session:
        base_series = grouped().collect()
    with Session(backend="pandas", options=shuffle_options) as session:
        budget_series = grouped().collect()
        groupby_stats = session.last_execution_stats.to_dict()
    assert np.array_equal(
        base_series.column.to_array(), budget_series.column.to_array())
    assert np.array_equal(
        base_series.index.to_array(), budget_series.index.to_array())
    assert groupby_stats["shuffle_partitions"] > 0

    shuffle_ratio = shuffle["best_seconds"] / inmem["best_seconds"]
    broadcast_ratio = (
        broadcast["best_seconds"] / inmem_small["best_seconds"])
    report = {
        "left_rows": LEFT_ROWS,
        "left_in_memory_bytes": left_bytes,
        "memory_budget": budget,
        "repeats": REPEATS,
        "shuffle_vs_inmemory": shuffle_ratio,
        "broadcast_vs_inmemory": broadcast_ratio,
        "groupby_under_budget": {
            "func": "nunique",
            "shuffle_partitions": groupby_stats["shuffle_partitions"],
            "bytes_spilled": groupby_stats["bytes_spilled"],
        },
        "results": [inmem, shuffle, inmem_small, broadcast],
    }

    print_table(
        f"Shuffle join: {LEFT_ROWS}-row table, budget = table/2 (ms)",
        ["mode", "best", "mean", "rows", "spilled", "buckets"],
        [
            [
                r["mode"],
                f"{r['best_seconds'] * 1e3:.2f}",
                f"{r['mean_seconds'] * 1e3:.2f}",
                r["result_rows"],
                r["bytes_spilled"],
                r["shuffle_partitions"],
            ]
            for r in report["results"]
        ],
    )
    print(f"shuffle vs in-memory (best/best): {shuffle_ratio:.2f}x")
    print(f"broadcast vs in-memory (best/best): {broadcast_ratio:.2f}x")

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
        trajectory["shuffle_join"] = report
        with open(out_path, "w") as f:
            f.write(json.dumps(trajectory, indent=2) + "\n")
    else:
        print(json.dumps(report, indent=2))

    if ROWS >= PERF_ASSERT_MIN_ROWS:
        # the acceptance bar: skipping the shuffle when one side fits
        # must cost at most 20% over the plain in-memory join
        assert broadcast_ratio <= 1.2, (
            f"broadcast {broadcast_ratio:.2f}x in-memory, expected <=1.2x")
