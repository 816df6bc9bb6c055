"""Scheduler-driven range prefetch: overlap remote latency with compute.

When a parallel strategy plans an execution, it walks the plan's scan
nodes and asks each source for the byte ranges its read will need
(:meth:`prefetch_ranges`); those ranges are fetched on a small shared
pool while earlier nodes run, so a 5 ms-per-range store costs wall
time once, not once per range.

The cache is deliberately narrow:

- entries are keyed ``(url, start, end)`` and consumed *once* -- a scan
  read pops its range (a prefetch hit) or falls through to a direct
  read (a miss); nothing is served twice, so no staleness window exists,
- in-flight fetches are visible: a consumer arriving early waits on the
  fetch instead of issuing a duplicate read,
- completed entries charge a :class:`~repro.memory.manager.TrackedBuffer`
  against the active session's budget and are evicted FIFO past
  :data:`PREFETCH_BUDGET`; a budget-refused charge drops the data (the
  consumer re-reads) rather than holding untracked bytes,
- :func:`purge_url` abandons a plan's leftovers (pruned partitions,
  failed runs) -- in-flight workers see the flag and discard without
  charging, so nothing leaks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set, Tuple

from repro.graph.scheduler.stats import ExecutionStats, count
from repro.io.fs import read_range_with_retry, resolve_filesystem

#: fetch parallelism: small and shared, like dask's IO pool.
_POOL_WORKERS = 4

#: byte ceiling of prefetched-but-unconsumed ranges: completed entries
#: beyond it are evicted oldest-first.
PREFETCH_BUDGET = 32 * 1024 * 1024

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _fetch_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_POOL_WORKERS,
                thread_name_prefix="lafp-prefetch",
            )
        return _pool


class _Entry:
    __slots__ = ("event", "data", "error", "buffer", "abandoned")

    def __init__(self):
        self.event = threading.Event()
        self.data: Optional[bytes] = None
        self.error: Optional[Exception] = None
        self.buffer = None
        self.abandoned = False


class RangeCache:
    """In-flight and completed prefetched ranges, consumed at most once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int, int], _Entry]" = \
            OrderedDict()
        self._held_bytes = 0

    # -- producer side ----------------------------------------------------

    def submit(self, url: str, start: int, end: int,
               counters: ExecutionStats, manager=None,
               budget: Optional[int] = None) -> bool:
        """Schedule one range fetch, counted into ``counters`` (the
        issuing run's record); False when already cached/in-flight."""
        key = (url, int(start), int(end))
        with self._lock:
            if key in self._entries:
                return False
            entry = _Entry()
            self._entries[key] = entry
        counters.add(ranges_prefetched=1)
        _fetch_pool().submit(
            self._fetch, key, entry, counters, manager, budget,
        )
        return True

    def _fetch(self, key, entry: _Entry, counters: ExecutionStats,
               manager, budget) -> None:
        url, start, end = key
        try:
            data = read_range_with_retry(
                resolve_filesystem(url), url, start, end, counters=counters,
            )
        except Exception as exc:  # surfaced to the consumer
            with self._lock:
                if not entry.abandoned:
                    entry.error = exc
            entry.event.set()
            return
        buffer = None
        if manager is not None:
            from repro.memory.manager import (
                SimulatedMemoryError,
                TrackedBuffer,
            )

            try:
                buffer = TrackedBuffer(len(data), manager=manager)
            except SimulatedMemoryError:
                # over budget: drop the prefetch (consumer re-reads)
                # instead of holding bytes the manager can't see.
                with self._lock:
                    self._entries.pop(key, None)
                entry.event.set()
                return
        with self._lock:
            if entry.abandoned:
                if buffer is not None:
                    buffer.release()
            else:
                entry.data = data
                entry.buffer = buffer
                self._held_bytes += len(data)
                self._evict_past(budget)
        entry.event.set()

    def _evict_past(self, budget: Optional[int]) -> None:
        """FIFO-evict completed entries past the byte budget (locked)."""
        if budget is None:
            return
        for key in list(self._entries):
            if self._held_bytes <= budget:
                break
            entry = self._entries[key]
            if entry.data is None:
                continue  # in-flight: never evicted
            del self._entries[key]
            self._held_bytes -= len(entry.data)
            if entry.buffer is not None:
                entry.buffer.release()

    # -- consumer side ----------------------------------------------------

    def consume(self, url: str, start: int, end: int) -> Optional[bytes]:
        """Pop a prefetched range (waiting on an in-flight fetch), or
        ``None`` on a miss.  A fetch that failed re-raises its error."""
        key = (url, int(start), int(end))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
        entry.event.wait()
        with self._lock:
            if self._entries.get(key) is not entry:
                return None  # evicted/purged while we waited
            del self._entries[key]
            data, error, buffer = entry.data, entry.error, entry.buffer
            if data is not None:
                self._held_bytes -= len(data)
        if buffer is not None:
            buffer.release()
        if error is not None:
            raise error
        return data

    # -- lifecycle --------------------------------------------------------

    def purge_url(self, url: str) -> None:
        """Drop every entry of ``url``; in-flight fetches are abandoned
        (their workers discard the data without charging a buffer)."""
        with self._lock:
            for key in [k for k in self._entries if k[0] == url]:
                entry = self._entries.pop(key)
                entry.abandoned = True
                if entry.data is not None:
                    self._held_bytes -= len(entry.data)
                    if entry.buffer is not None:
                        entry.buffer.release()

    def clear(self) -> None:
        with self._lock:
            urls = {key[0] for key in self._entries}
        for url in urls:
            self.purge_url(url)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._entries)


_CACHE = RangeCache()


def range_cache() -> RangeCache:
    return _CACHE


def fetch_range(url: str, start: int, end: int) -> bytes:
    """Consumer entry point: prefetched bytes when available, a direct
    (retried) read otherwise; counted into the run bound on the calling
    thread."""
    data = _CACHE.consume(url, start, end)
    if data is not None:
        count(prefetch_hits=1)
        return data
    return read_range_with_retry(resolve_filesystem(url), url, start, end)


def prefetch_scan_node(node, session,
                       counters: ExecutionStats) -> Set[str]:
    """Issue prefetches for one ``scan`` node's byte ranges.

    Asks the node's source for ``prefetch_ranges`` (sources without the
    hook -- whole-file text formats -- simply don't prefetch) and
    schedules each range against the active session's budget, counted
    into ``counters`` (the run's record; the fetch pool's threads are
    not the run's, so the sink is explicit).  Returns the URLs
    touched so the scheduler can purge leftovers after the run.
    """
    args = node.args
    try:
        from repro.core.session import current_session
        from repro.io.predicate import Predicate
        from repro.io.source_table import session_source

        session = session or current_session()
        if not session.get_option("io.prefetch"):
            return set()
        source = session_source(args, session.metastore, session)
        hook = getattr(source, "prefetch_ranges", None)
        if hook is None:
            return set()
        ranges = hook(
            columns=args.get("columns"),
            predicate=Predicate.from_arg(args.get("predicate")),
            partitions=args.get("partitions"),
        )
    except Exception:
        return set()  # prefetch is an optimization: never fail the plan
    manager = session.memory
    for url, start, end in ranges:
        _CACHE.submit(url, start, end, counters, manager=manager,
                      budget=PREFETCH_BUDGET)
    return {url for url, _, _ in ranges}
