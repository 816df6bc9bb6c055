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

Residency is one in-memory LRU: an ordered map of key -> ``(blob,
kind)`` plus a byte count, both under one lock.  Admission evicts the
least-recently-used entries until the new blob fits :data:`BUDGET`, so
the count never exceeds it; a blob larger than the whole budget is not
admitted.  A hit refreshes its entry's recency.

The budget is the cache's own constant, not a session option: the
cache is shared by every session, so no session's admission may evict
the others' entries under a budget of its own choosing.

A forked child starts with an empty cache (see
:func:`_reset_after_fork`), never with a lock a parent thread held.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

#: cache keys: (plan fingerprint, backend name, semantic-options sig)
CacheKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]

#: byte budget of the cache's blobs
BUDGET = 64 * 1024 * 1024


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


class ResultCache:
    """Thread-safe byte-bounded LRU blob cache (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Tuple[bytes, str]]" = (
            OrderedDict()
        )
        #: bytes of the held blobs; never above the admitting budget
        self.nbytes = 0
        # lifetime counters (surfaced by info() and the CLI)
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def get(
        self, key: CacheKey, budget: Optional[int] = BUDGET
    ) -> Optional[Tuple[bytes, str]]:
        """Return ``(blob, kind)`` for ``key`` and mark it most recently
        used, or ``None`` on a miss.  ``budget`` is unread."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        key: CacheKey,
        blob: bytes,
        kind: str,
        budget: int = BUDGET,
        spill_budget: Optional[int] = None,
    ) -> int:
        """Insert ``blob`` under ``key``; returns evictions performed.

        Least-recently-used entries are evicted until the blob fits
        ``budget``; a blob larger than ``budget`` is not admitted.
        ``spill_budget`` is unread.
        """
        nbytes = len(blob)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return 0
            if nbytes > budget:
                return 0
            evicted = 0
            while self.nbytes + nbytes > budget:
                _, (old, _) = self._entries.popitem(last=False)
                self.nbytes -= len(old)
                evicted += 1
            self._entries[key] = (blob, kind)
            self.nbytes += nbytes
            self.insertions += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def info(self) -> Dict[str, Any]:
        """Counters and residency snapshot (CLI ``cache`` command)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.nbytes,
                "hits": self.hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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
    # a forked child starts a fresh cache: the parent's may be locked
    # by a thread that does not exist in the child
    global _GLOBAL
    _GLOBAL = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)
