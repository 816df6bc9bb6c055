"""Plan-fingerprint result cache: cold vs warm vs shared-prefix reuse.

Three legs over a join + aggregate workload:

- **cold vs warm** -- the same plan collected in two sessions with
  ``optimizer.reuse`` on; the second session's plan collapses to one
  ``from_cached`` leaf, so the warm wall must be a small fraction of
  the cold wall (>= 5x at full benchmark size).
- **shared shuffle prefix** -- two *different* plans sharing an
  expensive merge prefix (lowered to the hash-shuffle pipeline); the
  second session recomputes only its suffix, and must beat a
  reuse-off run of the same plan by >= 2x.
- **budget adherence** -- many distinct results inserted into a private
  ``ResultCache`` against deliberately small budgets (the process-wide
  cache's budgets are constants); the cache's private memory manager
  peak must stay within the memory budget (admission demotes before
  registering) while demotions/evictions are observed and the disk
  tier honours the spill budget.

``LAFP_BENCH_ROWS`` scales the tables (default 3000); the speedup
assertions only arm at ``PERF_ASSERT_MIN_ROWS`` so tiny smoke runs
stay green.  ``LAFP_BENCH_JSON`` merges the report under the
``plan_cache`` key (the EXPERIMENTS.md trajectory file).
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import print_table

import repro.lazyfatpandas.pandas as lfp
from repro.cache.result_cache import (
    ResultCache,
    result_cache,
    serialize_value,
)
from repro.core.session import Session
from repro.frame import DataFrame

ROWS = int(os.environ.get("LAFP_BENCH_ROWS", "3000"))
PERF_ASSERT_MIN_ROWS = 2000
REPEATS = 3

REUSE = {"optimizer.reuse": True, "cache.min_cost": 0.0}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    base = tmp_path_factory.mktemp("plan_cache")
    rng = np.random.RandomState(7)
    n = ROWS * 4
    left = os.path.join(base, "trips.csv")
    DataFrame({
        "k": rng.randint(0, max(2, ROWS // 10), n),
        "fare": np.round(rng.normal(15.0, 10.0, n), 2),
        "tip": np.round(np.abs(rng.normal(2.0, 1.0, n)), 2),
        "passengers": rng.randint(1, 6, n),
    }).to_csv(left)
    right = os.path.join(base, "zones.csv")
    DataFrame({
        "k": np.arange(max(2, ROWS // 10)),
        "zone_pop": rng.randint(1000, 99999, max(2, ROWS // 10)),
    }).to_csv(right)
    return left, right


def _prefix(left, right):
    trips = lfp.scan_csv(left, partition_bytes=16384)
    zones = lfp.scan_csv(right, partition_bytes=16384)
    joined = trips.merge(zones, on="k", how="inner")
    joined["total"] = joined["fare"] + joined["tip"]
    return joined


def _plan_a(left, right):
    return _prefix(left, right).groupby(["k"])["total"].agg("sum")


def _plan_b(left, right):
    return _prefix(left, right).groupby(["k"])["passengers"].agg("count")


def _collect(builder, tables, options):
    left, right = tables
    with Session(backend="pandas", options=options) as session:
        start = time.perf_counter()
        builder(left, right).collect()
        wall = time.perf_counter() - start
        stats = session.last_execution_stats
    return wall, stats


def _best(builder, tables, options, warm_cache_from=None):
    walls, stats = [], None
    for _ in range(REPEATS):
        result_cache().clear()
        if warm_cache_from is not None:
            _collect(warm_cache_from, tables, REUSE)
        wall, stats = _collect(builder, tables, options)
        walls.append(wall)
    return min(walls), stats


def test_bench_plan_cache(tables):
    result_cache().clear()

    # -- leg 1: cold vs warm, identical plan ---------------------------
    cold_wall, cold_stats = _best(_plan_a, tables, REUSE)
    warm_wall, warm_stats = _best(
        _plan_a, tables, REUSE, warm_cache_from=_plan_a
    )
    warm_speedup = cold_wall / max(warm_wall, 1e-9)
    assert warm_stats.cache_hits >= 1
    assert warm_stats.nodes_executed == 1  # one from_cached leaf

    # -- leg 2: shared shuffle prefix across two sessions --------------
    shuffled = dict(REUSE)
    shuffled["optimizer.shuffle_threshold_bytes"] = 100
    base_wall, _ = _best(_plan_b, tables, {
        "optimizer.shuffle_threshold_bytes": 100,
    })
    shared_wall, shared_stats = _best(
        _plan_b, tables, shuffled, warm_cache_from=_plan_a
    )
    shared_speedup = base_wall / max(shared_wall, 1e-9)
    assert shared_stats.cache_hits >= 1, (
        "the shared merge prefix never hit the cache"
    )

    # -- leg 3: budget adherence under churn ---------------------------
    result_cache().clear()
    left, right = tables
    with Session(backend="pandas"):
        probe_blob, _ = serialize_value(_prefix(left, right).collect())
    budget = max(4096, len(probe_blob) // 2)  # forces demotion
    spill_budget = len(probe_blob) * 2  # forces disk-tier eviction
    cache = ResultCache()
    churn_evictions = 0
    for i in range(6):
        with Session(backend="pandas"):
            frame = _prefix(left, right)
            frame[f"v{i}"] = frame["total"] * (i + 1)
            variant = frame.collect()
        # a third of the rows fits the memory tier, the whole goes to disk
        for part, value in (("head", variant.head(len(variant) // 3)),
                            ("all", variant)):
            blob, kind = serialize_value(value)
            churn_evictions += cache.put(
                (f"v{i}.{part}", "pandas", ()), blob, kind,
                budget=budget, spill_budget=spill_budget)
    cache_info = cache.info()
    assert cache_info["memory_peak_bytes"] <= budget, (
        f"cache overshot its budget: peak "
        f"{cache_info['memory_peak_bytes']} > {budget}"
    )
    assert cache_info["disk_bytes"] <= spill_budget
    assert cache_info["demotions"] > 0, "budget never forced a demotion"
    assert cache_info["evictions"] > 0, (
        "spill budget never forced an eviction"
    )
    cache.clear()

    report = {
        "rows": ROWS,
        "repeats": REPEATS,
        "cold_seconds": cold_wall,
        "warm_seconds": warm_wall,
        "warm_speedup": warm_speedup,
        "shared_prefix_base_seconds": base_wall,
        "shared_prefix_warm_seconds": shared_wall,
        "shared_prefix_speedup": shared_speedup,
        "warm_bytes_reused": warm_stats.cache_bytes_reused,
        "shared_bytes_reused": shared_stats.cache_bytes_reused,
        "budget_bytes": budget,
        "spill_budget_bytes": spill_budget,
        "budget_leg": cache_info,
        "budget_leg_run_evictions": churn_evictions,
    }

    print_table(
        f"plan cache: {ROWS} base rows",
        ["leg", "baseline ms", "cached ms", "speedup"],
        [
            ["cold vs warm", f"{cold_wall * 1e3:.2f}",
             f"{warm_wall * 1e3:.2f}", f"{warm_speedup:.1f}x"],
            ["shared prefix", f"{base_wall * 1e3:.2f}",
             f"{shared_wall * 1e3:.2f}", f"{shared_speedup:.1f}x"],
        ],
    )
    print(
        f"budget leg: peak {cache_info['memory_peak_bytes']}B of "
        f"{budget}B budget, {cache_info['demotions']} demotions, "
        f"{cache_info['evictions']} evictions"
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
        trajectory["plan_cache"] = report
        with open(out_path, "w") as f:
            f.write(json.dumps(trajectory, indent=2) + "\n")
    else:
        print(json.dumps(report, indent=2))

    if ROWS >= PERF_ASSERT_MIN_ROWS:
        assert warm_speedup >= 5.0, (
            f"warm run only {warm_speedup:.1f}x faster than cold"
        )
        assert shared_speedup >= 2.0, (
            f"shared-prefix reuse only {shared_speedup:.1f}x faster"
        )
