"""Per-execution runtime statistics.

Every scheduler strategy fills one :class:`ExecutionStats` per
``collect()``: per-node wall time, queue wait (time between a node
becoming ready and starting to run), and bytes registered/released with
the session's memory manager while the node ran.  The object is surfaced
through ``LazyFrame.explain(stats=True)`` and the workload runner's
result JSON.

Byte attribution is exact under the serial and fused strategies; under
the threaded strategy concurrently-running nodes share the manager's
counters, so per-node bytes are an approximation (totals stay exact).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional


@dataclasses.dataclass
class NodeStat:
    """Runtime record of one executed task-graph node."""

    node_id: int
    op: str
    label: Optional[str]
    wall_seconds: float
    queue_wait_seconds: float
    bytes_registered: int
    bytes_released: int
    worker: str
    #: the scheduler's pre-execution size prediction (None = unknown);
    #: compare against ``bytes_registered`` to audit the estimator.
    bytes_estimated: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(eq=False, repr=False)
class ExecutionStats:
    """Aggregated runtime statistics of one scheduler execution.

    The fields, in declaration order, are the keys of :meth:`to_dict`.
    """

    #: the strategy the session asked for (``executor.strategy``).
    strategy: str
    #: the strategy that actually ran (capability fallbacks may
    #: downgrade ``threaded`` to ``serial`` on lazy engines).
    effective_strategy: Optional[str] = None
    max_workers: int = 1
    wall_seconds: float = 0.0
    nodes_executed: int = 0
    cache_hits: int = 0
    #: cross-session result-cache accounting (``optimizer.reuse``):
    #: fingerprint probes that missed, serialized bytes served from
    #: the cache instead of recomputed, entries this run's inserts
    #: pushed out of the cache, and results inserted for later runs.
    #: ``cache_hits`` above counts both per-session persisted-node
    #: reuse and cross-session substitutions.
    cache_misses: int = 0
    cache_bytes_reused: int = 0
    cache_evictions: int = 0
    cache_inserted: int = 0
    fused_chains: int = 0
    fused_nodes: int = 0
    throttle_waits: int = 0
    bytes_registered: int = 0
    bytes_released: int = 0
    #: sum of per-node size predictions (nodes with one).
    bytes_estimated: int = 0
    #: scan-source partition accounting: how many partitions the
    #: executed scans actually read vs how many their sources have
    #: (pruning shows up as read < total).
    partitions_read: int = 0
    partitions_total: int = 0
    #: shuffle accounting: buckets written by shuffle_write nodes,
    #: bytes their stores pushed to spill files, and merges that
    #: took the broadcast fast path instead of shuffling.
    shuffle_partitions: int = 0
    bytes_spilled: int = 0
    broadcast_joins: int = 0
    #: filesystem-layer accounting (diffed from the session's
    #: IOCounters around the run): bytes actually fetched through
    #: the byte-range layer, ranges the scheduler prefetched, scan
    #: reads served from the prefetch cache, transient range
    #: failures absorbed by the retry layer, rows x columns the scans'
    #: readers materialized, and spill files the shuffle stores made.
    bytes_read: int = 0
    ranges_prefetched: int = 0
    prefetch_hits: int = 0
    io_retries: int = 0
    cells_decoded: int = 0
    spill_files: int = 0
    #: was the memory-aware static ordering pass applied to this
    #: run's execution order (``executor.static_order``)?
    static_order: bool = False
    #: predicted peak live bytes of the execution order actually
    #: used (the eager-release simulation over per-node estimates);
    #: None when the scheduler never planned an order.
    estimated_peak_bytes: Optional[int] = None
    #: process-strategy accounting: tasks shipped to pool workers,
    #: tasks that fell back to in-process execution (unpicklable
    #: args or results, stream/store inputs, side effects), and
    #: tasks re-run after a worker died mid-flight.
    process_tasks: int = 0
    process_fallbacks: int = 0
    process_retries: int = 0
    #: the session manager's high-water mark when the run finished.
    #: The manager's peak is *not* reset per run (the workload runner
    #: measures whole-program peaks on the same manager), so this can
    #: predate the run; per-run allocation volume is
    #: ``bytes_registered``.
    manager_peak_bytes: int = 0
    nodes: List[NodeStat] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self.effective_strategy = self.effective_strategy or self.strategy
        self._lock = threading.Lock()

    # -- recording (thread-safe) ----------------------------------------

    def record_node(self, node, wall_seconds: float, queue_wait_seconds: float,
                    bytes_registered: int, bytes_released: int,
                    worker: str,
                    bytes_estimated: Optional[int] = None) -> None:
        stat = NodeStat(
            node_id=node.id,
            op=node.op,
            label=node.label,
            wall_seconds=wall_seconds,
            queue_wait_seconds=queue_wait_seconds,
            bytes_registered=bytes_registered,
            bytes_released=bytes_released,
            worker=worker,
            bytes_estimated=bytes_estimated,
        )
        with self._lock:
            self.nodes.append(stat)
            self.nodes_executed += 1
            self.bytes_registered += bytes_registered
            self.bytes_released += bytes_released
            if bytes_estimated is not None:
                self.bytes_estimated += bytes_estimated

    def record_scan(self, partitions_read: int, partitions_total: int) -> None:
        with self._lock:
            self.partitions_read += partitions_read
            self.partitions_total += partitions_total

    def record_shuffle(self, n_buckets: int, bytes_spilled: int) -> None:
        with self._lock:
            self.shuffle_partitions += n_buckets
            self.bytes_spilled += bytes_spilled

    def record_broadcast_join(self) -> None:
        with self._lock:
            self.broadcast_joins += 1

    def record_process_task(self, shipped: bool) -> None:
        with self._lock:
            if shipped:
                self.process_tasks += 1
            else:
                self.process_fallbacks += 1

    def record_process_retry(self) -> None:
        with self._lock:
            self.process_retries += 1

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def record_cache_run(self, hits: int, misses: int, bytes_reused: int,
                         evictions: int, inserted: int) -> None:
        """Publish one run's cross-session result-cache counters."""
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses
            self.cache_bytes_reused += bytes_reused
            self.cache_evictions += evictions
            self.cache_inserted += inserted

    def record_io(self, bytes_read: int = 0, ranges_prefetched: int = 0,
                  prefetch_hits: int = 0, io_retries: int = 0,
                  cells_decoded: int = 0, spill_files: int = 0) -> None:
        """Publish one run's filesystem-layer counter deltas."""
        with self._lock:
            self.bytes_read += bytes_read
            self.ranges_prefetched += ranges_prefetched
            self.prefetch_hits += prefetch_hits
            self.io_retries += io_retries
            self.cells_decoded += cells_decoded
            self.spill_files += spill_files

    def record_throttle_wait(self) -> None:
        with self._lock:
            self.throttle_waits += 1

    def record_fused_chain(self, length: int) -> None:
        with self._lock:
            self.fused_chains += 1
            self.fused_nodes += length

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (the workload runner embeds this verbatim)."""
        out: Dict[str, object] = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        out["nodes"] = [stat.to_dict() for stat in self.nodes]
        return out

    def render(self) -> str:
        """Terminal rendering for ``explain(stats=True)``."""
        head = (
            f"strategy={self.strategy}"
            + (f" (ran as {self.effective_strategy})"
               if self.effective_strategy != self.strategy else "")
            + f" workers={self.max_workers}"
            f" nodes={self.nodes_executed} cache_hits={self.cache_hits}"
            f" wall={self.wall_seconds:.4f}s"
            f" manager_peak={self.manager_peak_bytes}B"
        )
        lines = [head]
        if (self.cache_misses or self.cache_bytes_reused
                or self.cache_evictions or self.cache_inserted):
            lines.append(
                f"result cache: {self.cache_bytes_reused}B reused, "
                f"{self.cache_misses} misses, "
                f"{self.cache_inserted} inserted, "
                f"{self.cache_evictions} evictions"
            )
        if self.fused_chains:
            lines.append(
                f"fused {self.fused_nodes} nodes into {self.fused_chains} chains"
            )
        if self.throttle_waits:
            lines.append(f"memory throttle waits: {self.throttle_waits}")
        if self.partitions_total:
            lines.append(
                f"scan partitions read: {self.partitions_read}"
                f"/{self.partitions_total}"
            )
        if self.cells_decoded:
            lines.append(f"scan cells decoded: {self.cells_decoded}")
        if self.shuffle_partitions:
            lines.append(
                f"shuffle buckets: {self.shuffle_partitions} "
                f"(spilled {self.bytes_spilled}B"
                f" in {self.spill_files} files)"
            )
        if self.broadcast_joins:
            lines.append(f"broadcast joins: {self.broadcast_joins}")
        if (self.bytes_read or self.ranges_prefetched
                or self.prefetch_hits or self.io_retries):
            lines.append(
                f"io: {self.bytes_read}B read, "
                f"{self.ranges_prefetched} ranges prefetched, "
                f"{self.prefetch_hits} prefetch hits, "
                f"{self.io_retries} retries"
            )
        if self.estimated_peak_bytes is not None:
            lines.append(
                f"estimated peak live bytes: {self.estimated_peak_bytes}"
                + (" (static order)" if self.static_order else "")
            )
        if self.process_tasks or self.process_fallbacks:
            line = (
                f"process tasks: {self.process_tasks} shipped, "
                f"{self.process_fallbacks} inline"
            )
            if self.process_retries:
                line += f", {self.process_retries} retried"
            lines.append(line)
        for stat in self.nodes:
            label = f" {stat.label}" if stat.label else ""
            estimate = (
                f" est={stat.bytes_estimated}B"
                if stat.bytes_estimated is not None else ""
            )
            lines.append(
                f"  node {stat.node_id} {stat.op}{label}: "
                f"{stat.wall_seconds * 1e3:.2f}ms "
                f"(+{stat.queue_wait_seconds * 1e3:.2f}ms queued) "
                f"reg={stat.bytes_registered}B rel={stat.bytes_released}B"
                f"{estimate} [{stat.worker}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ExecutionStats {self.effective_strategy} "
            f"nodes={self.nodes_executed} wall={self.wall_seconds:.4f}s>"
        )
