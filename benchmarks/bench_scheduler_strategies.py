"""Scheduler-strategy micro-benchmark: wide vs. deep graphs.

Compares the three executor strategies on the two graph shapes they
differentiate on:

- *wide*: one source fanning out to many independent aggregates -- the
  shape the threaded strategy parallelizes,
- *deep*: a long linear chain of row-preserving transforms (the paper's
  deep-chain workloads) -- the shape the fused strategy collapses.

Prints a paper-style table and emits the raw measurements as JSON
(``LAFP_BENCH_JSON`` names an output path; default prints to stdout),
starting the perf trajectory for the scheduler subsystem.
"""

import json
import os
import tempfile
import time

import numpy as np
import pytest

from conftest import print_table

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame

STRATEGIES = ["serial", "threaded", "fused"]
ROWS = int(os.environ.get("LAFP_BENCH_ROWS", "3000"))
REPEATS = 3
WIDE_FAN_OUT = 12
DEEP_CHAIN = 40


@pytest.fixture(scope="module")
def source_csv():
    path = tempfile.mktemp(suffix=".csv")
    rng = np.random.default_rng(11)
    DataFrame(
        {
            "x": rng.integers(-100, 100, ROWS),
            "y": rng.integers(0, 13, ROWS),
            "fare": np.round(np.abs(rng.normal(15, 9, ROWS)), 2),
        }
    ).to_csv(path)
    yield path
    os.unlink(path)


def _wide(path):
    """One read fanning out to WIDE_FAN_OUT independent aggregates.

    Combined into a single root so one execution schedules the whole
    fan-out -- that is the width the threaded strategy parallelizes
    (per-aggregate collects would execute isolated chains instead).
    """
    df = lfp.read_csv(path)
    df = df[df.x > -200]  # keep every row; forces a shared interior node
    combined = (df.fare + 0).sum()
    for i in range(1, WIDE_FAN_OUT):
        combined = combined + (df.fare + i).sum()
    return float(combined.collect())


def _deep(path):
    """A single DEEP_CHAIN-long pipeline of row-preserving transforms."""
    df = lfp.read_csv(path)
    for i in range(DEEP_CHAIN):
        df = df[df.x > (i % 7) - 101]  # always true: pure chain overhead
    return float(df.fare.sum().collect())


def _measure(shape_fn, path, strategy):
    seconds = []
    stats = None
    for _ in range(REPEATS):
        with Session(backend="pandas",
                     options={"executor.strategy": strategy,
                              "executor.max_workers": 4}) as session:
            started = time.perf_counter()
            shape_fn(path)
            seconds.append(time.perf_counter() - started)
            stats = session.last_execution_stats
    return {
        "strategy": stats.strategy,
        "best_seconds": min(seconds),
        "mean_seconds": sum(seconds) / len(seconds),
        "nodes_executed_last_collect": stats.nodes_executed,
        "fused_chains_last_collect": stats.fused_chains,
    }


@pytest.mark.bench
def test_bench_scheduler_strategies(source_csv):
    report = {
        "rows": ROWS,
        "repeats": REPEATS,
        "shapes": {
            "wide": {"fan_out": WIDE_FAN_OUT, "results": []},
            "deep": {"chain_length": DEEP_CHAIN, "results": []},
        },
    }
    for shape_name, shape_fn in (("wide", _wide), ("deep", _deep)):
        for strategy in STRATEGIES:
            report["shapes"][shape_name]["results"].append(
                _measure(shape_fn, source_csv, strategy)
            )

    rows = []
    for shape_name in ("wide", "deep"):
        for result in report["shapes"][shape_name]["results"]:
            rows.append([
                shape_name,
                result["strategy"],
                f"{result['best_seconds'] * 1e3:.2f}",
                f"{result['mean_seconds'] * 1e3:.2f}",
                result["fused_chains_last_collect"],
            ])
    print_table(
        "Scheduler strategies: wide fan-out vs deep chain (ms)",
        ["shape", "strategy", "best", "mean", "fused"],
        rows,
    )

    out_path = os.environ.get("LAFP_BENCH_JSON")
    payload = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)

    # Shape assertions, not perf assertions (machines vary): every
    # strategy completed both shapes, and fusion engaged on the chain.
    for shape_name in ("wide", "deep"):
        assert len(report["shapes"][shape_name]["results"]) == len(STRATEGIES)
    deep_fused = next(
        r for r in report["shapes"]["deep"]["results"]
        if r["strategy"] == "fused"
    )
    assert deep_fused["fused_chains_last_collect"] >= 1
