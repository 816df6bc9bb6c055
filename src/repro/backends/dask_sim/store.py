"""Spillable partition storage.

Materialized partitions (from ``persist()``, ``from_pandas`` splits, or
adopted cache values) live in a :class:`PartitionStore`.  When the
simulated memory budget tightens, least-recently-used partitions are
pickled to disk and their tracked bytes released; access transparently
loads them back.  This is the mechanism that lets the Dask backend run
9-of-10 programs on the largest dataset in Figure 12.

The store holds handles weakly: a partition lives as long as an
expression holds its handle, and a spilled handle's file goes with it.
The files sit in one directory under ``memory.spill_dir``, made at the
first spill and removed by :meth:`PartitionStore.clear` or garbage
collection; spills count into ``bytes_spilled`` / ``spill_files``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from typing import Optional

from repro.graph.scheduler.stats import count
from repro.io.spill import session_spill_dir
from repro.memory import current_memory_manager

#: Spill until live bytes drop below this fraction of the budget.
LOW_WATER = 0.5
#: Begin spilling when live bytes exceed this fraction of the budget.
HIGH_WATER = 0.8


def _remove_file(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class PartitionHandle:
    """A partition that is either in memory or spilled to disk."""

    _ids = iter(range(1, 1 << 60))

    def __init__(self, store: "PartitionStore", value):
        self.id = next(self._ids)
        self._store = store
        self._value = value
        self._path: Optional[str] = None
        self._finalizer: Optional[weakref.finalize] = None
        self.nbytes = _value_nbytes(value)
        #: the store's clock at the last access (LRU order)
        self.last_used = 0

    @property
    def in_memory(self) -> bool:
        return self._value is not None

    def get(self):
        """The partition value, loading from disk if spilled."""
        self._store.touch(self)
        if self._value is None:
            with open(self._path, "rb") as f:
                self._value = pickle.load(f)  # re-registers tracked bytes
        return self._value

    def spill(self) -> None:
        """Write to disk and drop the in-memory reference."""
        if self._value is None:
            return
        if self._path is None:
            path = os.path.join(self._store.directory(), f"part-{self.id}.pkl")
            with open(path, "wb") as f:
                pickle.dump(self._value, f, protocol=pickle.HIGHEST_PROTOCOL)
            self._path = path
            self._finalizer = weakref.finalize(self, _remove_file, path)
            count(spill_files=1)
        count(bytes_spilled=self.nbytes)
        # Dropping the reference lets the Column finalizers release the
        # tracked bytes promptly under CPython refcounting.
        self._value = None

    def drop(self) -> None:
        self._value = None
        if self._finalizer is not None:
            self._finalizer()
        self._path = None


class PartitionStore:
    """LRU registry of spillable partitions (handles held weakly)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._clock = 0
        self._handles: "weakref.WeakValueDictionary[int, PartitionHandle]" = (
            weakref.WeakValueDictionary())
        self._directory: Optional[str] = None
        self._finalizer: Optional[weakref.finalize] = None
        self.spill_count = 0

    def directory(self) -> str:
        """The spill directory, made on first use."""
        with self._lock:
            if self._directory is None:
                root = session_spill_dir()
                if root is not None:
                    os.makedirs(root, exist_ok=True)
                self._directory = tempfile.mkdtemp(
                    prefix="lafp-spill-", dir=root)
                self._finalizer = weakref.finalize(
                    self, shutil.rmtree, self._directory, True)
            return self._directory

    def put(self, value) -> PartitionHandle:
        handle = PartitionHandle(self, value)
        with self._lock:
            self._handles[handle.id] = handle
        self.touch(handle)
        self.ensure_headroom()
        return handle

    def touch(self, handle: PartitionHandle) -> None:
        with self._lock:
            self._clock += 1
            handle.last_used = self._clock

    def _resident(self):
        """Live in-memory handles, least recently used first."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.in_memory]
        return sorted(handles, key=lambda h: h.last_used)

    def ensure_headroom(self) -> None:
        """Spill LRU partitions until under the low-water mark."""
        manager = current_memory_manager()
        budget = manager.budget
        if budget is None:
            return
        if manager.live < HIGH_WATER * budget:
            return
        for handle in self._resident():
            if manager.live <= LOW_WATER * budget:
                break
            handle.spill()
            self.spill_count += 1

    def spill_all(self) -> None:
        """Spill every resident partition."""
        for handle in self._resident():
            handle.spill()
            self.spill_count += 1

    def clear(self) -> None:
        """Drop every partition and remove the spill directory."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.drop()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._directory = None


def _value_nbytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    if nbytes is None:
        return 0
    return int(nbytes)
