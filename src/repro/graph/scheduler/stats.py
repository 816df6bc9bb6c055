"""The stats model: one record per run, one way to write to it.

Every scheduler strategy fills one :class:`ExecutionStats` per
``collect()``.  Its additive counters are *declared* here, once -- a
dataclass field made by :func:`_counter` carries its doc line, the
:data:`_LINES` template that names it is where ``render()`` shows it --
and :meth:`ExecutionStats.add` is the only way one changes.
``to_dict()`` (the workload runner's JSON), ``render()``
(``explain(stats=True)``) and the CLI (:func:`counter_lines`) are read
off that declaration: a new counter is one field here plus one ``add``
where the work happens.

A count is written *where the work happens, into the run it belongs
to*: the scheduler binds the run's record around everything it executes
(:meth:`ExecutionStats.bound`, a context variable, so each pool thread
sees its own run) and the deep layers -- source reads, range fetches,
spills, shuffle operators, the reuse pass -- call :func:`count`, which
adds to the bound record.  Work done
outside any run (metastore sampling, ``explain()``, the eager
baselines) is counted nowhere.  A process-pool worker fills a record of
its own and ships :meth:`~ExecutionStats.counters` back beside its
result; the parent adds it.

Per-node byte attribution diffs the memory manager's monotonic totals
around the node: exact when nodes run one at a time, an approximation
when a parallel strategy overlaps nodes (run totals stay exact).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import string
import threading
from types import MappingProxyType
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)


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

    @classmethod
    def of(cls, node, **measured) -> "NodeStat":
        """``node``'s record: its identity plus what was measured."""
        return cls(node_id=node.id, op=node.op, label=node.label, **measured)

    def to_dict(self) -> Dict[str, object]:
        # the fields are scalars: asdict's recursive deep copy of each
        # costs ten times this, on every node of every run
        return {f: getattr(self, f) for f in _NODE_STAT_FIELDS}


_NODE_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(NodeStat))


def _counter(doc: str):
    """Declare one additive counter; ``doc`` says what it counts."""
    return dataclasses.field(default=0, metadata={"doc": doc})


@dataclasses.dataclass(eq=False, repr=False)
class ExecutionStats:
    """Aggregated runtime statistics of one scheduler execution.

    The fields, in declaration order, are the keys of :meth:`to_dict`.
    """

    #: the strategy that ran (``executor.strategy``).
    strategy: str
    max_workers: int = 1
    wall_seconds: float = 0.0
    nodes_executed: int = _counter("nodes that ran (one NodeStat each)")
    cache_hits: int = _counter(
        "nodes served without running: persisted results of this "
        "session plus cross-session result-cache substitutions")
    cache_misses: int = _counter("result-cache fingerprint probes that missed")
    cache_bytes_reused: int = _counter(
        "serialized bytes served from the result cache instead of "
        "recomputed")
    cache_evictions: int = _counter(
        "entries this run's inserts pushed out of the result cache")
    cache_inserted: int = _counter("results this run inserted for later runs")
    fused_chains: int = _counter("linear chains run as one task")
    fused_nodes: int = _counter("nodes inside those chains")
    throttle_waits: int = _counter(
        "times a budgeted run held a ready task back because another "
        "was in flight")
    bytes_registered: int = _counter(
        "bytes registered with the memory manager while nodes ran")
    bytes_released: int = _counter(
        "bytes released to the memory manager while nodes ran")
    bytes_estimated: int = _counter(
        "sum of per-node size predictions (nodes with one)")
    partitions_read: int = _counter(
        "partitions the executed scans were planned to read "
        "(pruning shows up as read < total)")
    partitions_total: int = _counter(
        "partitions the executed scans' sources have")
    shuffle_partitions: int = _counter(
        "buckets a shuffle (its shuffle_write nodes) wrote")
    bytes_spilled: int = _counter(
        "tracked bytes the shuffle stores pushed to disk, whenever the "
        "spill happened")
    broadcast_joins: int = _counter(
        "merges run piece by piece against a gathered right side "
        "instead of shuffling")
    bytes_read: int = _counter("bytes fetched through the byte-range layer")
    ranges_prefetched: int = _counter("byte ranges the scheduler prefetched")
    prefetch_hits: int = _counter("range reads served from the prefetch cache")
    io_retries: int = _counter(
        "transient range-read failures absorbed by the retry layer")
    cells_decoded: int = _counter(
        "rows x columns the scans' readers materialized (before the "
        "predicate and the projection)")
    spill_files: int = _counter(
        "spill files the shuffle stores made")
    #: was the memory-aware static ordering pass applied to this
    #: run's execution order (``executor.static_order``)?
    static_order: bool = False
    #: predicted peak live bytes of the execution order actually
    #: used (the eager-release simulation over per-node estimates);
    #: None when the scheduler never planned an order.
    estimated_peak_bytes: Optional[int] = None
    process_tasks: int = _counter("tasks shipped to pool workers")
    process_fallbacks: int = _counter(
        "tasks run in the parent instead (unpicklable args or "
        "results, store inputs, side effects)")
    process_retries: int = _counter(
        "tasks re-run after a worker died mid-flight")
    #: the session manager's high-water mark when the run finished.
    #: The manager's peak is *not* reset per run (the workload runner
    #: measures whole-program peaks on the same manager), so this can
    #: predate the run; per-run allocation volume is
    #: ``bytes_registered``.
    manager_peak_bytes: int = 0
    nodes: List[NodeStat] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- writing (thread-safe) -------------------------------------------

    def add(self, *nodes: NodeStat, **deltas: int) -> None:
        """The one way a count changes: add ``deltas`` to the declared
        counters they name, and account each executed node's
        :class:`NodeStat` (``nodes_executed`` and the byte totals follow
        from it).  An undeclared name is a ``TypeError``."""
        for name in deltas:
            if name not in COUNTERS:
                raise TypeError(
                    f"undeclared counter {name!r}; declare a field with "
                    f"_counter() in {__name__}")
        values = self.__dict__
        with self._lock:
            for stat in nodes:
                self.nodes.append(stat)
                self.nodes_executed += 1
                self.bytes_registered += stat.bytes_registered
                self.bytes_released += stat.bytes_released
                self.bytes_estimated += stat.bytes_estimated or 0
            for name, delta in deltas.items():
                values[name] += delta

    @contextlib.contextmanager
    def bound(self) -> Iterator["ExecutionStats"]:
        """Make this the record :func:`count` writes to, for the calling
        thread until the block exits."""
        token = _BOUND.set(self)
        try:
            yield self
        finally:
            _BOUND.reset(token)

    # -- export ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The declared counters' values (what a pool worker ships back
        for its parent to :meth:`add`)."""
        with self._lock:
            return {name: getattr(self, name) for name in COUNTERS}

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
            f" workers={self.max_workers}"
            f" nodes={self.nodes_executed} cache_hits={self.cache_hits}"
            f" wall={self.wall_seconds:.4f}s"
            f" manager_peak={self.manager_peak_bytes}B"
        )
        counts = self.counters()
        lines = [head, *counter_lines(
            counts, [group for group in _LINES if group != "process"])]
        if self.estimated_peak_bytes is not None:
            lines.append(
                f"estimated peak live bytes: {self.estimated_peak_bytes}"
                + (" (static order)" if self.static_order else "")
            )
        lines += counter_lines(counts, ["process"])
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
            f"<ExecutionStats {self.strategy} "
            f"nodes={self.nodes_executed} wall={self.wall_seconds:.4f}s>"
        )


#: the declared counters: name -> what it counts (declaration order).
COUNTERS: Mapping[str, str] = MappingProxyType({
    field.name: field.metadata["doc"]
    for field in dataclasses.fields(ExecutionStats)
    if "doc" in field.metadata
})

#: the summary lines of ``render()``, in order.  A line is shown when a
#: counter its template names is non-zero; a template after the first
#: is a suffix that is added when one of its own is.
_LINES: Mapping[str, Tuple[str, ...]] = MappingProxyType({
    "result cache": (
        "result cache: {cache_bytes_reused}B reused, {cache_misses} misses,"
        " {cache_inserted} inserted, {cache_evictions} evictions",),
    "fusion": ("fused {fused_nodes} nodes into {fused_chains} chains",),
    "throttle": ("memory throttle waits: {throttle_waits}",),
    "scan": ("scan partitions read: {partitions_read}/{partitions_total}",),
    "decode": ("scan cells decoded: {cells_decoded}",),
    "shuffle": (
        "shuffle buckets: {shuffle_partitions} "
        "(spilled {bytes_spilled}B in {spill_files} files)",),
    "broadcast": ("broadcast joins: {broadcast_joins}",),
    "io": (
        "io: {bytes_read}B read, {ranges_prefetched} ranges prefetched,"
        " {prefetch_hits} prefetch hits, {io_retries} retries",),
    "process": (
        "process tasks: {process_tasks} shipped,"
        " {process_fallbacks} inline",
        ", {process_retries} retried"),
})


def _counts_any(template: str, counts: Mapping[str, object]) -> bool:
    return any(counts.get(name)
               for _, name, _, _ in string.Formatter().parse(template)
               if name)


def counter_lines(counts: Mapping[str, object],
                  groups: Optional[Iterable[str]] = None) -> List[str]:
    """The summary lines for ``counts`` (a record's :meth:`~
    ExecutionStats.counters` or its ``to_dict()``, e.g. back from the
    runner's JSON): every line of :data:`_LINES`, or those of
    ``groups`` in the order given."""
    lines = []
    for group in _LINES if groups is None else groups:
        line, *suffixes = _LINES[group]
        if _counts_any(line, counts):
            shown = [line] + [
                part for part in suffixes if _counts_any(part, counts)]
            lines.append("".join(shown).format_map(counts))
    return lines


_BOUND: "contextvars.ContextVar[Optional[ExecutionStats]]" = (
    contextvars.ContextVar("repro_run_stats", default=None))
#: the record of the run executing on this thread
#: (None outside any run).
bound_record = _BOUND.get


def count(**deltas: int) -> None:
    """Add ``deltas`` to the record of the run this code is executing
    for; outside any run the work is counted nowhere."""
    stats = bound_record()
    if stats is not None:
        stats.add(**deltas)
