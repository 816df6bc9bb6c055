"""Per-layer probes: direct, timed calls into each layer's public
functions, on the running workload's own inputs.

A probe answers "how long does this layer take for this much work",
which the end-to-end numbers cannot: it is what a change to one layer
should move first.  Every probe loops until it has run for
:data:`MIN_SECONDS` and reports the best of :data:`REPEATS` such loops,
as seconds per call.  No regression bound hangs on a probe.

Each workload names one CSV of its own (``probe_inputs()``) for the
``io`` / ``frame`` / ``metastore`` / ``io.spill`` probes; the planning
probes (``analysis``, ``core``, ``graph``, ``cache``) run on the three
plan shapes of :mod:`plans` over notebook-sized tables, because their
cost depends on the plan and not on the data.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

import plans

MIN_SECONDS = 0.05
REPEATS = 3
#: the io / frame probes read at most this many rows of the probe table.
PROBE_ROWS = 20_000
SPILL_BUCKETS = 16
COLD_STARTS = 5
#: ``--quick``: every probe is one call, to check it runs at all.
QUICK = False


def best_of(fn: Callable[[], object],
            setup: Optional[Callable[[], object]] = None) -> float:
    """Seconds per ``fn(setup())`` call: best of REPEATS loops, each at
    least MIN_SECONDS of ``fn`` time.  ``setup`` is never timed."""
    if QUICK:
        started = time.perf_counter()
        fn(setup()) if setup else fn()
        return time.perf_counter() - started

    def once() -> float:
        arg = setup() if setup else None
        started = time.perf_counter()
        fn(arg) if setup else fn()
        return time.perf_counter() - started

    first = once()
    loops = max(1, int(math.ceil(MIN_SECONDS / max(first, 1e-7))))
    return min(
        sum(once() for _ in range(loops)) / loops for _ in range(REPEATS)
    )


# ---------------------------------------------------------------------------
# planning layers
# ---------------------------------------------------------------------------


def planning_probes(harness, scratch: str, seed: int) -> Dict[str, float]:
    import repro.lazyfatpandas.pandas as lfp
    from repro.analysis.jit import optimize_source
    from repro.analysis.plan import analyze_plan
    from repro.cache.fingerprint import fingerprint_node
    from repro.cache.result_cache import ResultCache, serialize_value
    from repro.core.optimizer import (
        eliminate_common_subexpressions, optimize, push_down_predicates,
        push_down_projections, apply_metadata_hints,
    )
    from repro.core.optimizer.partition_pruning import prune_scan_partitions
    from repro.core.optimizer.predicate_pushdown import (
        fold_predicates_into_scans,
    )
    from repro.core.optimizer.shuffle import lower_shuffle_nodes
    from repro.graph.scheduler.estimates import estimate_node_bytes
    from repro.graph.scheduler.order import (
        priority_topological_order, static_priorities,
    )
    from repro.graph.taskgraph import topological_order
    from repro.workloads.programs import PROGRAMS

    out: Dict[str, float] = {}
    header = "import repro.lazyfatpandas.pandas as pd\npd.analyze()\n"
    sources = [header + PROGRAMS[name].body for name in sorted(PROGRAMS)]
    out["analysis.jit.rewrite_s"] = best_of(
        lambda: [optimize_source(source) for source in sources])

    tables = plans.write_small_tables(
        os.path.join(scratch, "probe-small"), 400, seed)
    counter = iter(range(10 ** 9))

    with harness.session() as session:
        def fresh_roots():
            """The three shapes, never built before in this session."""
            i = next(counter)
            return [build(lfp, tables, i).node
                    for build in plans.SHAPES.values()]

        out["core.build_s"] = best_of(fresh_roots)
        out["analysis.plan.analyze_s"] = best_of(
            lambda roots: [analyze_plan([r], session=session) for r in roots],
            setup=fresh_roots)
        out["analysis.plan.diagnostics"] = sum(
            len(analyze_plan([r], session=session)) for r in fresh_roots())

        # optimize() and its passes rewire the plan in place: each call
        # gets a freshly built one (the probe's plans are never run)
        out["core.optimize_s"] = best_of(
            lambda roots: [optimize([r], session, live_nodes=[])
                           for r in roots],
            setup=fresh_roots)
        report = [optimize([r], session, live_nodes=[]) for r in fresh_roots()]
        out["core.optimizer.rewrites"] = sum(
            r[key] for r in report
            for key in ("cse", "pushdown", "scan_fold", "projection",
                        "metadata", "pruned_partitions", "shuffle_lowered"))

        passes = (
            ("cse", lambda rs: eliminate_common_subexpressions(rs)),
            ("pushdown", lambda rs: (push_down_predicates(rs),
                                     fold_predicates_into_scans(rs))),
            ("projection", lambda rs: push_down_projections(rs)),
            ("metadata", lambda rs: apply_metadata_hints(
                rs, session.metastore)),
            ("pruning", lambda rs: prune_scan_partitions(
                rs, session.metastore, prune=True)),
            ("shuffle_lower", lambda rs: lower_shuffle_nodes(
                rs, session, [])),
        )
        # in pipeline order on one plan, so each pass sees what it sees
        # inside optimize(); timed apart
        best = {name: math.inf for name, _ in passes}
        for _ in range(REPEATS):
            spent = {name: 0.0 for name, _ in passes}
            loops = 0
            while sum(spent.values()) < MIN_SECONDS and not (QUICK and loops):
                for root in fresh_roots():
                    for name, run_pass in passes:
                        started = time.perf_counter()
                        run_pass([root])
                        spent[name] += time.perf_counter() - started
                loops += 1
            for name in spent:
                best[name] = min(best[name], spent[name] / loops)
        for name, seconds in best.items():
            out[f"core.optimizer.{name}_s"] = seconds

        def plans_to_explain():
            i = next(counter)
            return [build(lfp, tables, i) for build in plans.SHAPES.values()]

        out["graph.explain_s"] = best_of(
            lambda frames: [f.explain() for f in frames],
            setup=plans_to_explain)

        def order_inputs():
            orders = [topological_order([r]) for r in fresh_roots()]
            return [(o, estimate_node_bytes(o, session)) for o in orders]

        out["graph.order_s"] = best_of(
            lambda pairs: [
                priority_topological_order(o, static_priorities(o, est))
                for o, est in pairs],
            setup=order_inputs)

        out["cache.fingerprint_s"] = best_of(
            lambda roots: [fingerprint_node(r, session) for r in roots],
            setup=fresh_roots)

        # put/get on a private cache: the process-wide one belongs to
        # the measured ops
        value = plans.paper(lfp, tables, next(counter)).collect()
        blob, kind = serialize_value(value)
        del value
        cache = ResultCache()
        keys = iter(range(10 ** 9))
        budget = 64 << 20

        def put():
            cache.put((f"fp{next(keys)}", "pandas", ()), blob, kind,
                      budget=budget, spill_budget=budget)

        out["cache.put_s"] = best_of(put)
        some_key = (f"fp{next(keys) - 1}", "pandas", ())
        out["cache.get_s"] = best_of(lambda: cache.get(some_key, budget))
        cache.clear()
    return out


# ---------------------------------------------------------------------------
# data layers, on the workload's probe table
# ---------------------------------------------------------------------------


def data_probes(inputs: dict, scratch: str) -> Dict[str, float]:
    from repro.frame import DataFrame, merge, read_csv
    from repro.io import (
        ColumnarSource, CsvSource, DatasetSource, JsonlSource, ShuffleStore,
        write_columnar, write_dataset, write_jsonl,
    )
    from repro.metastore import MetaStore
    from repro.workloads import datagen

    out: Dict[str, float] = {}
    csv, key, value = inputs["csv"], inputs["key"], inputs["value"]
    io_dir = os.path.join(scratch, "probe-io")
    os.makedirs(io_dir, exist_ok=True)

    out["frame.read_csv_s"] = best_of(lambda: read_csv(csv))
    frame = read_csv(csv).head(PROBE_ROWS)
    rows = len(frame)
    # a low-cardinality column to hive-partition on, whatever the table
    frame["part"] = np.arange(rows) % 8
    keys = np.unique(frame[key].column.to_array())
    dim = DataFrame({key: keys, "w": np.arange(len(keys))})
    middle = float(np.median(frame[value].column.to_array()))

    out["frame.filter_s"] = best_of(lambda: frame[frame[value] > middle])
    out["frame.groupby_s"] = best_of(
        lambda: frame.groupby(key)[value].agg("sum"))
    out["frame.merge_s"] = best_of(
        lambda: merge(frame, dim, on=key, how="inner"))

    paths = {fmt: os.path.join(io_dir, name) for fmt, name in (
        ("csv", "p.csv"), ("jsonl", "p.jsonl"), ("dataset", "p_hive"),
        ("columnar", "p.lfc"))}

    def write_hive():
        shutil.rmtree(paths["dataset"], ignore_errors=True)
        write_dataset(frame, paths["dataset"], partition_on="part")

    writers = {
        "csv": lambda: frame.to_csv(paths["csv"]),
        "jsonl": lambda: write_jsonl(frame, paths["jsonl"]),
        "dataset": write_hive,
        "columnar": lambda: write_columnar(frame, paths["columnar"]),
    }
    sources = {"csv": CsvSource, "jsonl": JsonlSource,
               "dataset": DatasetSource, "columnar": ColumnarSource}
    for fmt, write in writers.items():
        out[f"io.{fmt}.write_s"] = best_of(write)
        if fmt == "dataset":
            size = sum(os.path.getsize(os.path.join(base, name))
                       for base, _, files in os.walk(paths[fmt])
                       for name in files)
        else:
            size = os.path.getsize(paths[fmt])
        out[f"io.{fmt}.bytes_per_row"] = size / rows

        def read_all(fmt=fmt):
            source = sources[fmt](paths[fmt])
            return [source.read_partition(p) for p in source.partitions()]

        out[f"io.{fmt}.read_s"] = best_of(read_all)
    out["frame.to_csv_s"] = out["io.csv.write_s"]

    # the shuffle store: hash-partition the table on its key, spill
    # every bucket, read every bucket back
    codes = frame[key].column.to_array()
    if codes.dtype.kind not in "iu":
        codes = np.unique(codes, return_inverse=True)[1]
    buckets = [np.flatnonzero(codes % SPILL_BUCKETS == b)
               for b in range(SPILL_BUCKETS)]
    spill_dir = os.path.join(scratch, "probe-spill")

    def filled_store():
        store = ShuffleStore(SPILL_BUCKETS, spill_dir=spill_dir)
        store.set_template(frame)  # a key with few values leaves buckets empty
        for b, idx in enumerate(buckets):
            store.append(b, frame.take(idx))
        return store

    def spill(store):
        store.spill_all()
        stores.append(store)

    def drain(store):
        for b in range(SPILL_BUCKETS):
            store.read_bucket(b)
        store.close()

    stores: list = []
    out["io.spill.write_s"] = best_of(spill, setup=filled_store)
    for store in stores:
        store.close()

    def spilled_store():
        store = filled_store()
        store.spill_all()
        return store

    out["io.spill.read_s"] = best_of(drain, setup=spilled_store)
    shutil.rmtree(spill_dir, ignore_errors=True)

    meta_dir = os.path.join(scratch, "probe-meta")
    out["metastore.compute_s"] = best_of(
        lambda: MetaStore(meta_dir).compute_and_store(csv, sample_rows=2_000))
    gen_dir = os.path.join(scratch, "probe-gen")
    out["workloads.datagen_s"] = best_of(
        lambda: datagen.generate("taxi", gen_dir, 2_000))
    for path in (io_dir, meta_dir, gen_dir):
        shutil.rmtree(path, ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# the machine and the interpreter
# ---------------------------------------------------------------------------


def cold_start_seconds(repo_dir: str, count: int) -> float:
    """Median wall of ``count`` fresh interpreters importing the package
    and running the smallest program (``zip`` / ``lafp_pandas``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_dir, "src")
    command = [sys.executable, "-m", "repro.workloads.cli", "run", "zip",
               "--mode", "lafp_pandas", "--rows", "500"]
    walls = []
    for _ in range(count):
        started = time.perf_counter()
        done = subprocess.run(command, env=env, capture_output=True,
                              timeout=120)
        walls.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(
                "cold-start probe failed: " + done.stderr.decode()[-500:])
    return statistics.median(walls)


def run_all(workload, harness, repo_dir: str, scratch: str,
            quick: bool) -> Dict[str, float]:
    global QUICK
    QUICK = quick
    out = planning_probes(harness, scratch, workload.seed)
    out.update(data_probes(workload.probe_inputs(), scratch))
    out["driver.cold_start_s"] = cold_start_seconds(
        repo_dir, 1 if quick else COLD_STARTS)
    return out
