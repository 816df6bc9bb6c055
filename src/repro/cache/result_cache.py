"""Process-global result cache keyed by plan fingerprints.

The cache stores *serialized* results (pickle blobs of DataFrame /
Series / scalar values).  A hit deserializes into the consuming
session, which means the rebuilt column buffers charge the
*consumer's* memory budget; the cache itself only ever holds inert
bytes.

Keys are ``(fingerprint, backend, semantic-options signature)`` -- see
:func:`repro.cache.fingerprint.fingerprint_node` for the first
component and :func:`repro.core.config.semantic_signature` for the
last -- so a plan executed under ``modin`` never serves a ``dask``
session, and flipping a semantics-relevant option (e.g.
``workload.source_format``) mid-session is a clean miss.

Residency is two-tiered with byte-cost LRU:

- **memory** -- blobs charged to a private :class:`~repro.memory.
  manager.MemoryManager` via :class:`~repro.memory.manager.
  TrackedBuffer`; total held within :data:`BUDGET`.  Admission
  *demotes* least-recently-used blobs to disk first, so the manager's
  peak never overshoots the budget.
- **disk** -- per-entry pickle files under a ``tempfile.mkdtemp``
  (reusing the spill idiom of :mod:`repro.io.spill`), held within
  :data:`SPILL_BUDGET`.  Eviction from the disk tier deletes the
  file *immediately* -- a cached-then-evicted result must never leak
  spill files until interpreter exit.

Both budgets are the cache's own constants, not session options: the
cache is shared by every session, so no session's admission may demote
or evict the others' entries under a budget of its own choosing.

Fork safety follows ``io/spill.py``: a forked child detaches the
directory finalizer and starts an empty cache, so child-side garbage
collection can never delete the parent's entry files.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.memory.manager import MemoryManager, TrackedBuffer

#: cache keys: (plan fingerprint, backend name, semantic-options sig)
CacheKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]

#: byte budgets of the memory and disk tiers (None = unbounded).
BUDGET = 64 * 1024 * 1024
SPILL_BUDGET = 256 * 1024 * 1024


def serialize_value(value: Any) -> Tuple[bytes, str]:
    """Pickle an eager result into ``(blob, kind)`` form.

    Returns ``(blob, kind)`` where ``kind`` is ``"frame"``,
    ``"series"``, or ``"scalar"``.  Raises :class:`TypeError` for any
    other value (a shuffle store, an array) -- callers treat that as
    "not cacheable", never as an error.
    """
    from repro.frame import DataFrame, Series

    if isinstance(value, DataFrame):
        kind = "frame"
    elif isinstance(value, Series):
        kind = "series"
    elif isinstance(value, (bool, int, float, complex, str, bytes)) or (
        value is None
    ) or _is_numpy_scalar(value):
        kind = "scalar"
    else:
        raise TypeError(
            f"{type(value).__name__} results are not cacheable"
        )
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, kind


def _is_numpy_scalar(value: Any) -> bool:
    import numpy as np

    return isinstance(value, np.generic)


def deserialize_value(blob: bytes) -> Any:
    """Rebuild a cached value; column buffers charge the calling
    session's memory manager (same ownership as a shipped result)."""
    return pickle.loads(blob)


class CacheEntry:
    """One cached result: an in-memory blob or an on-disk file."""

    __slots__ = ("key", "nbytes", "kind", "blob", "path", "buffer", "hits")

    def __init__(self, key: CacheKey, nbytes: int, kind: str) -> None:
        self.key = key
        self.nbytes = nbytes
        self.kind = kind
        self.blob: Optional[bytes] = None
        self.path: Optional[str] = None
        self.buffer: Optional[TrackedBuffer] = None
        self.hits = 0

    @property
    def in_memory(self) -> bool:
        return self.blob is not None


class ResultCache:
    """Thread-safe two-tier LRU blob cache (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        #: private accounting for in-memory blobs only; budget stays
        #: ``None`` (never raises) -- admission enforces the byte
        #: ceiling by demoting *before* registering, so ``peak`` is a
        #: proof the budget was never overshot.
        self.memory = MemoryManager()
        self._dir: Optional[str] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._seq = 0
        self._disk_bytes = 0
        # lifetime counters (surfaced by info() and the CLI)
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.demotions = 0
        self.rejected = 0

    # -- lookup --------------------------------------------------------

    def get(
        self, key: CacheKey, budget: Optional[int] = BUDGET
    ) -> Optional[Tuple[bytes, str]]:
        """Return ``(blob, kind)`` for ``key``, or ``None`` on a miss.

        A disk-tier hit is promoted back into memory when ``budget``
        allows (demoting colder entries to make room).  An unreadable
        entry file is treated as a miss and the entry dropped.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.blob is not None:
                blob = entry.blob
            else:
                assert entry.path is not None
                try:
                    with open(entry.path, "rb") as fh:
                        blob = fh.read()
                except OSError:
                    self._drop(entry, count_eviction=False)
                    self.misses += 1
                    return None
                self._promote(entry, blob, budget)
            entry.hits += 1
            self.hits += 1
            self._entries.move_to_end(key)
            return blob, entry.kind

    def contains(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    # -- admission -----------------------------------------------------

    def put(
        self,
        key: CacheKey,
        blob: bytes,
        kind: str,
        budget: Optional[int] = BUDGET,
        spill_budget: Optional[int] = SPILL_BUDGET,
    ) -> int:
        """Insert ``blob`` under ``key``; returns evictions performed.

        Admission never overshoots: colder in-memory entries are
        demoted to disk until the blob fits ``budget`` (a blob larger
        than the whole budget goes straight to disk), and disk-tier
        entries are *evicted* -- their files deleted immediately --
        until the disk tier fits ``spill_budget``.  A blob larger than
        ``spill_budget`` is rejected outright.
        """
        nbytes = len(blob)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return 0
            if spill_budget is not None and nbytes > spill_budget:
                self.rejected += 1
                return 0
            entry = CacheEntry(key, nbytes, kind)
            if budget is not None and nbytes > budget:
                self._write_file(entry, blob)
            else:
                self._make_room_memory(nbytes, budget)
                entry.blob = blob
                entry.buffer = TrackedBuffer(nbytes, manager=self.memory)
            evicted = self._enforce_disk_budget(spill_budget)
            self._entries[key] = entry
            self.insertions += 1
            self.evictions += evicted
            return evicted

    # -- maintenance ---------------------------------------------------

    def clear(self) -> None:
        """Drop every entry, releasing buffers and deleting files."""
        with self._lock:
            for entry in list(self._entries.values()):
                self._drop(entry, count_eviction=False)

    def info(self) -> Dict[str, Any]:
        """Counters and residency snapshot (CLI ``cache`` command)."""
        with self._lock:
            in_mem = sum(1 for e in self._entries.values() if e.in_memory)
            return {
                "entries": len(self._entries),
                "entries_in_memory": in_mem,
                "entries_on_disk": len(self._entries) - in_mem,
                "memory_bytes": self.memory.live,
                "memory_peak_bytes": self.memory.peak,
                "disk_bytes": self._disk_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "demotions": self.demotions,
                "rejected": self.rejected,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals (call with the lock held) ---------------------------

    def _make_room_memory(self, nbytes: int, budget: Optional[int]) -> None:
        if budget is None:
            return
        while self.memory.live + nbytes > budget:
            victim = self._coldest(in_memory=True)
            if victim is None:
                break
            assert victim.blob is not None
            self._write_file(victim, victim.blob)
            victim.blob = None
            if victim.buffer is not None:
                victim.buffer.release()
                victim.buffer = None
            self.demotions += 1

    def _enforce_disk_budget(self, spill_budget: Optional[int]) -> int:
        if spill_budget is None:
            return 0
        evicted = 0
        while self._disk_bytes > spill_budget:
            victim = self._coldest(in_memory=False)
            if victim is None:  # pragma: no cover - defensive
                break
            self._drop(victim, count_eviction=False)
            evicted += 1
        return evicted

    def _promote(
        self, entry: CacheEntry, blob: bytes, budget: Optional[int]
    ) -> None:
        if budget is not None and entry.nbytes > budget:
            return
        self._make_room_memory(entry.nbytes, budget)
        entry.blob = blob
        entry.buffer = TrackedBuffer(entry.nbytes, manager=self.memory)
        self._delete_file(entry)

    def _coldest(self, in_memory: bool) -> Optional[CacheEntry]:
        for entry in self._entries.values():
            if entry.in_memory == in_memory:
                return entry
        return None

    def _drop(self, entry: CacheEntry, count_eviction: bool) -> None:
        self._entries.pop(entry.key, None)
        if entry.buffer is not None:
            entry.buffer.release()
            entry.buffer = None
        entry.blob = None
        self._delete_file(entry)
        if count_eviction:
            self.evictions += 1

    def _write_file(self, entry: CacheEntry, blob: bytes) -> None:
        path = os.path.join(self._ensure_dir(), f"e{self._seq:08d}.bin")
        self._seq += 1
        with open(path, "wb") as fh:
            fh.write(blob)
        entry.path = path
        self._disk_bytes += entry.nbytes

    def _delete_file(self, entry: CacheEntry) -> None:
        if entry.path is None:
            return
        try:
            os.unlink(entry.path)
        except OSError:  # pragma: no cover - best effort
            pass
        self._disk_bytes -= entry.nbytes
        entry.path = None

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="lafp-cache-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, True
            )
        return self._dir

    def _disarm(self) -> None:
        # forked child: forget everything without touching the
        # parent's files (mirror of spill._disarm_after_fork)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._entries = OrderedDict()
        self._dir = None
        self._disk_bytes = 0


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[ResultCache] = None


def result_cache() -> ResultCache:
    """The process-global cache (created on first use)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = ResultCache()
        return _GLOBAL


def _reset_after_fork() -> None:
    global _GLOBAL
    cache = _GLOBAL
    if cache is not None:
        cache._disarm()
    _GLOBAL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)
