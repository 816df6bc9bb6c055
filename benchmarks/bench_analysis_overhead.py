"""Section 5.3: static-analysis overhead (source-level JIT + plan lint).

Paper: "The time taken by JIT static analysis phase and rewriting for
various programs is in the range of 0.04 sec - 0.59 sec, which is a very
small fraction of the execution times of the programs."

Two analyzers are timed:

- ``test_analysis_overhead``: the source-level JIT (``optimize_source``)
  over every benchmark program, asserted a small fraction of each
  program's execution time,
- ``test_plan_analyzer_overhead``: the task-graph analyzer
  (:func:`repro.analysis.plan.analyze_plan` -- schema inference plus
  every built-in rule) over the deepest paper-shaped plan, and the
  session's analysis gate that runs it before every planned
  ``collect()``, asserted under 5% of a freshly built plan's
  ``collect()`` time at full benchmark size, on the pandas and Dask
  engines (``LAFP_BENCH_JSON`` names an output path; default prints to
  stdout).
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import print_table

from repro.analysis.jit import optimize_source
from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import _HEADERS


def test_analysis_overhead(runner, benchmark):
    def measure():
        out = {}
        for name, spec in sorted(PROGRAMS.items()):
            source = _HEADERS["lafp_dask"] + spec.body
            start = time.perf_counter()
            optimized = optimize_source(source)
            out[name] = (time.perf_counter() - start, len(optimized))
        return out

    overheads = benchmark.pedantic(measure, rounds=1, iterations=1)

    exec_times = {
        name: runner.run(name, "lafp_dask", "S").seconds
        for name in sorted(PROGRAMS)
    }
    rows = [
        [
            name,
            f"{overheads[name][0] * 1000:.2f}",
            f"{exec_times[name]:.3f}",
            f"{100 * overheads[name][0] / exec_times[name]:.1f}%",
        ]
        for name in sorted(PROGRAMS)
    ]
    print_table(
        "JIT static analysis + rewrite overhead",
        ["prog", "analysis ms", "exec s", "fraction"],
        rows,
    )

    for name, (seconds, _) in overheads.items():
        assert seconds < 0.6, f"{name}: analysis slower than the paper's max"
        assert seconds < exec_times[name], f"{name}: overhead dominates"


# ---------------------------------------------------------------------------
# Plan analyzer (schema inference + lint rules) overhead.
# ---------------------------------------------------------------------------

#: the ratio assertion only arms at full benchmark size; tiny smoke runs
#: make collect() so fast that the fixed analysis cost dominates.
PERF_ASSERT_MIN_ROWS = 12000
REPEATS = 5
#: single analyze calls are microsecond-scale; timing a tight inner
#: loop (timeit-style) keeps the measurement out of timer noise.
ANALYSIS_ITERS = 20


def _deep_paper_plan(lfp, trips_path, zones_path):
    """The deepest paper-shaped pipeline: two reads, a merge, derived
    columns, chained filters, and a grouped aggregation."""
    trips = lfp.read_csv(trips_path, parse_dates=["pickup_time"])
    zones = lfp.read_csv(zones_path)
    trips["hour"] = trips.pickup_time.dt.hour
    trips = trips[trips.fare > 0]
    trips["tip_rate"] = trips.tip / trips.fare
    trips = trips[trips.passengers <= 4]
    joined = trips.merge(zones, on="zone")
    joined = joined.drop(columns=["note"])
    busy = joined[joined.hour >= 7]
    return busy.groupby(["borough"])["tip_rate"].mean()


@pytest.mark.parametrize("backend", ["pandas", "dask"])
def test_plan_analyzer_overhead(tmp_path, benchmark, backend):
    import repro.lazyfatpandas.pandas as lfp
    from repro.analysis.plan import analyze_plan
    from repro.core.session import Session
    from repro.frame import DataFrame
    from repro.graph import collect_subgraph

    # Analysis cost depends on plan shape, not data size; 4x the base
    # row count gives collect() enough real work that the 5% budget
    # measures overhead rather than timer noise.
    rows = int(os.environ.get("LAFP_BENCH_ROWS", "3000")) * 4
    rng = np.random.default_rng(7)
    trips_path = os.path.join(tmp_path, "trips.csv")
    zones_path = os.path.join(tmp_path, "zones.csv")
    DataFrame({
        "pickup_time": np.array(
            ["2024-06-%02d %02d:00:00" % (i % 28 + 1, i % 24)
             for i in range(rows)],
            dtype=object,
        ),
        "zone": rng.integers(0, 40, rows),
        "passengers": rng.integers(1, 7, rows),
        "fare": np.round(rng.uniform(-2, 60, rows), 2),
        "tip": np.round(rng.uniform(0, 12, rows), 2),
    }).to_csv(trips_path)
    DataFrame({
        "zone": np.arange(40),
        "borough": np.array(
            [f"b{i % 5}" for i in range(40)], dtype=object
        ),
        "note": np.array([f"n{i}" for i in range(40)], dtype=object),
    }).to_csv(zones_path)

    with Session(backend=backend) as session:
        out = _deep_paper_plan(lfp, trips_path, zones_path)
        plan_nodes = len(collect_subgraph([out.node]))

        def analyze_once():
            return analyze_plan([out.node], session=session)

        diagnostics = benchmark.pedantic(
            analyze_once, rounds=REPEATS, iterations=1
        )
        # cold cost: a full analysis pass (schema inference + every
        # rule), timeit-style to stay out of timer noise
        analysis_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(ANALYSIS_ITERS):
                analyze_once()
            analysis_times.append(
                (time.perf_counter() - start) / ANALYSIS_ITERS
            )

        # per-collect cost: the gate at the default level, which every
        # planned collect() runs in full before the optimizer
        gate_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(ANALYSIS_ITERS):
                session._analysis_gate([out.node])
            gate_times.append(
                (time.perf_counter() - start) / ANALYSIS_ITERS
            )

        # a planned collect: each of a freshly built plan, whose root
        # holds no value yet, so it is gated, optimized and executed
        collect_times = []
        for _ in range(REPEATS):
            fresh = _deep_paper_plan(lfp, trips_path, zones_path)
            start = time.perf_counter()
            collected = fresh.collect()
            collect_times.append(time.perf_counter() - start)

    # a correct deep plan: the analyzer must find nothing to complain
    # about (hints included -- both pushdowns apply cleanly here)
    assert diagnostics == []
    assert len(collected) > 0

    analysis_best = min(analysis_times)
    gate_best = min(gate_times)
    collect_best = min(collect_times)
    fraction = gate_best / collect_best
    report = {
        "backend": backend,
        "rows": rows,
        "plan_nodes": plan_nodes,
        "repeats": REPEATS,
        "analysis_best_seconds": analysis_best,
        "gate_best_seconds": gate_best,
        "collect_best_seconds": collect_best,
        "gate_fraction_of_collect": fraction,
    }

    print_table(
        f"Plan analyzer overhead (deepest paper plan, {backend})",
        ["rows", "nodes", "cold ms", "per-collect ms", "collect ms",
         "fraction"],
        [[
            rows,
            plan_nodes,
            f"{analysis_best * 1000:.3f}",
            f"{gate_best * 1000:.3f}",
            f"{collect_best * 1000:.2f}",
            f"{100 * fraction:.2f}%",
        ]],
    )

    out_path = os.environ.get("LAFP_BENCH_JSON")
    payload = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)

    # a cold pass must stay far under the paper's JIT analysis budget
    # (0.04-0.59s) at any size
    assert analysis_best < 0.04, (
        f"cold plan analysis took {analysis_best * 1e3:.1f}ms"
    )
    if rows >= PERF_ASSERT_MIN_ROWS:
        assert fraction < 0.05, (
            f"per-collect analysis overhead is {100 * fraction:.1f}% of "
            f"collect time (budget: 5%)"
        )
