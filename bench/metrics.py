"""Turns a measurement into the metrics ``BENCHMARK.json`` declares.

``BENCHMARK.json`` is the catalogue: this module reads the names and
units from it and refuses to emit a per-layer metric it does not
declare, so the file and the harness cannot drift apart.  A per-layer
metric a workload does not exercise reads 0 there -- which is the "should
not move" half of the prediction table in ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from typing import Dict, Tuple

import probes
from harness import Measurement, calibration_seconds, op_class_seconds
from spans import LAYERS, Tracer

#: counts that repeat exactly from run to run (``bench/compare.py``
#: diffs them instead of comparing medians).
EXACT_COUNTS = {
    "io.bytes_read": "bytes_read",
    "io.spill.bytes_spilled": "bytes_spilled",
    "graph.scheduler.nodes_executed": "nodes_executed",
    "io.partitions_read": "partitions_read",
    "io.partitions_total": "partitions_total",
    "core.optimizer.rewrites": "optimizer_rewrites",
}


def load_catalogue(repo_dir: str) -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(repo_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def exact_counts(m: Measurement) -> Dict[str, int]:
    # threaded ops race on admission, so their counts may differ by run
    return {name: int(sum(
        s.get(key) or 0 for r in m.records if not r.op.threaded
        for s in r.stats)) for name, key in EXACT_COUNTS.items()}


def counter_metrics(m: Measurement) -> Dict[str, float]:
    """What the public ``ExecutionStats`` counters of the last measured
    pass say, summed over the workload's ops."""
    serial = [s for r in m.records if not r.op.threaded for s in r.stats]
    every = [s for r in m.records for s in r.stats]

    def total(key, stats=every):
        return sum(s.get(key) or 0 for s in stats)

    node_wall = sum(n["wall_seconds"] for s in serial for n in s["nodes"])
    out = {
        "graph.scheduler.wall_s": total("wall_seconds"),
        "graph.scheduler.nodes_executed": total("nodes_executed"),
        # time inside execute() that no node accounts for; serial ops
        # only -- on worker threads node walls overlap
        "graph.scheduler.dispatch_s": total("wall_seconds", serial)
        - node_wall,
        "graph.scheduler.queue_wait_s": sum(
            n["queue_wait_seconds"] for s in every for n in s["nodes"]),
        "graph.scheduler.throttle_waits": total("throttle_waits"),
        "cache.hits": total("cache_hits"),
        "cache.misses": total("cache_misses"),
        "cache.inserted": total("cache_inserted"),
        "cache.bytes_reused": total("cache_bytes_reused"),
        "cache.evictions": total("cache_evictions"),
        "io.bytes_read": total("bytes_read"),
        "io.partitions_read": total("partitions_read"),
        "io.partitions_total": total("partitions_total"),
        "io.prefetch.ranges": total("ranges_prefetched"),
        "io.prefetch.hits": total("prefetch_hits"),
        "io.retries": total("io_retries"),
        "io.spill.bytes_spilled": total("bytes_spilled"),
        "io.spill.partitions": total("shuffle_partitions"),
        "backends.shuffle.broadcast_joins": total("broadcast_joins"),
    }
    if out["io.partitions_total"]:
        out["io.prune_ratio"] = 1 - (
            out["io.partitions_read"] / out["io.partitions_total"])
    if out["io.prefetch.ranges"]:
        out["io.prefetch.hit_ratio"] = (
            out["io.prefetch.hits"] / out["io.prefetch.ranges"])
    registered = total("bytes_registered")
    if registered:
        out["memory.est_vs_actual_ratio"] = (
            total("bytes_estimated") / registered)
    for name, seconds in op_class_seconds(every).items():
        out[f"exec.op.{name}.wall_s"] = seconds
    return out


def driver_metrics(m: Measurement, setup: dict) -> Dict[str, float]:
    passes = m.pass_seconds
    threaded = [max(r.peaks) for r in m.records if r.op.threaded]
    return {
        # the other estimators of wall_s: a change that adds variance
        # moves these and leaves the best-of-P alone
        "driver.wall_median_s": m.wall_median(),
        "driver.wall_max_s": m.wall_max(),
        "driver.pass_spread":
            (max(passes) - min(passes)) / statistics.median(passes),
        "driver.passes": len(passes),
        "driver.cpu_s": m.cpu_seconds / len(passes),
        "driver.rss_peak_bytes":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        # the machine's speed, to read a noisy row by; adjusts nothing
        "driver.calib_s": statistics.median(
            calibration_seconds() for _ in range(9)),
        "driver.import_s": setup["import_s"],
        "driver.prepare_s": setup["prepare_s"],
        "driver.references_s": setup["references_s"],
        "driver.warmup_s": setup["warmup_s"],
        "memory.peak_bytes.threaded": max(threaded, default=0),
        "memory.leaked_bytes": sum(r.leaked_bytes for r in m.records),
        "memory.spill_files_left": sum(r.spill_files_left
                                       for r in m.records),
    }


def traced_pass(workload, harness, measurement: Measurement,
                trace_path: str) -> Tuple[Dict[str, float], dict]:
    """One more pass with the spans on; writes the Chrome trace."""
    tracer = Tracer()
    tracer.install()
    harness.tracer = tracer
    try:
        traced = harness.measure(workload, 0.0, 1, max_passes=1)
    finally:
        harness.tracer = None
        tracer.remove()
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write_chrome_trace(trace_path)
    by_op = tracer.layer_table_by_op()
    table = tracer.layer_table(by_op)
    traced_seconds = tracer.traced_seconds()
    out = {f"trace.{layer}.self_s": table[layer] for layer in LAYERS}
    out["trace.spans"] = len(tracer.spans)
    out["trace.coverage_ratio"] = sum(table.values()) / traced_seconds
    out["driver.trace_overhead_ratio"] = traced.wall() / measurement.wall()
    info = {
        "path": trace_path, "spans": len(tracer.spans),
        "coverage": out["trace.coverage_ratio"],
        "shares": {layer: table[layer] / traced_seconds
                   for layer in LAYERS},
        "by_op": by_op,
        "failed": traced.failed,
    }
    return out, info


def per_layer(workload, harness, measurement: Measurement, setup: dict,
              run_dir: str, trace_path: str, repo_dir: str,
              catalogue: Dict[str, str],
              quick: bool) -> Tuple[Dict[str, float], dict]:
    values: Dict[str, float] = {}
    values.update(counter_metrics(measurement))
    values.update(driver_metrics(measurement, setup))
    values.update(workload.layer_metrics(measurement))
    traced, info = traced_pass(workload, harness, measurement, trace_path)
    values.update(traced)
    values.update(probes.run_all(workload, harness, repo_dir, run_dir, quick))
    undeclared = sorted(set(values) - set(catalogue))
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return {name: float(values.get(name, 0.0)) for name in catalogue}, info
