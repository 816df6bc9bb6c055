"""Simulated memory accounting, sharded per session.

Every column buffer created by :mod:`repro.frame` registers its size with
a :class:`MemoryManager`.  Buffers deregister when garbage collected
(CPython refcounting makes this effectively deterministic), or explicitly
when a backend spills them to disk.

Each :class:`~repro.core.session.Session` owns its own manager, so two
concurrent sessions account (and budget) their allocations independently
-- a multi-tenant executor cannot OOM a neighbour.  The root session is
no exception; :func:`current_memory_manager` resolves the manager of the
calling thread's current session.

The manager keeps these numbers:

- ``live``  -- bytes currently registered,
- ``peak``  -- maximum of ``live`` since the last :meth:`MemoryManager.reset_peak`,
- ``budget`` -- optional ceiling; registration beyond it raises
  :class:`SimulatedMemoryError`,
- ``total_registered`` / ``total_released`` -- monotonic lifetime sums
  (the scheduler diffs them for per-node byte attribution),
- ``double_release_count`` -- how many times a release drove ``live``
  below zero (a caller bug; clamped, counted, and warned about).

A ``budget`` of ``None`` (the default) disables the ceiling, so ordinary
library use is unaffected.  A session's budget is its ``memory.budget``
option; the benchmark runner sets one scaled to the paper's RAM:data
ratio.
"""

from __future__ import annotations

import threading
import warnings
import weakref
from contextlib import contextmanager
from typing import Iterator, Optional


class SimulatedMemoryError(MemoryError):
    """Raised when a tracked allocation would exceed the simulated budget.

    Subclasses :class:`MemoryError` so code written to survive real
    out-of-memory conditions behaves identically under simulation.
    """

    def __init__(self, requested: int, live: int, budget: int):
        self.requested = requested
        self.live = live
        self.budget = budget
        super().__init__(
            f"simulated OOM: requested {requested} B with {live} B live "
            f"against a budget of {budget} B"
        )


class MemoryManager:
    """Tracks live and peak bytes of registered buffers.

    Thread-safe: the Dask and Modin simulators execute partitions from
    worker threads, and the threaded scheduler registers node results
    concurrently.
    """

    def __init__(self, budget: Optional[int] = None):
        self._lock = threading.Lock()
        self._live = 0
        self._peak = 0
        self._total_registered = 0
        self._total_released = 0
        #: bumped by reset(): releases of buffers registered before a
        #: reset are stale (their bytes were already zeroed) and must
        #: not be mistaken for double-releases.
        self._epoch = 0
        self.budget = budget
        self.oom_count = 0
        self.double_release_count = 0

    # -- accounting ------------------------------------------------------

    def register(self, nbytes: int) -> int:
        """Account for ``nbytes`` of new buffer memory.

        Returns the registration epoch (pass it back to
        :meth:`_release_epoch` so releases straddling a :meth:`reset`
        are dropped, not double-counted).  Raises
        :class:`SimulatedMemoryError` if a budget is set and the
        allocation would push ``live`` past it.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        with self._lock:
            if self.budget is not None and self._live + nbytes > self.budget:
                self.oom_count += 1
                raise SimulatedMemoryError(nbytes, self._live, self.budget)
            self._live += nbytes
            self._total_registered += nbytes
            if self._live > self._peak:
                self._peak = self._live
            return self._epoch

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool (buffer freed or spilled)."""
        self._release_epoch(nbytes, self._epoch)

    def _release_epoch(self, nbytes: int, epoch: int) -> None:
        """Release bound to the registration epoch.

        Buffer finalizers capture the epoch at registration; a
        :meth:`reset` in between (benchmark cell teardown) already
        zeroed their bytes, so their late releases are dropped instead
        of being miscounted as double-releases.
        """
        underflow = False
        with self._lock:
            if epoch != self._epoch:
                return
            self._live -= nbytes
            self._total_released += nbytes
            if self._live < 0:
                # Double-release is a bug in the caller; clamp so the
                # accounting stays sane but keep it visible: count it
                # and warn, so the bug cannot hide behind the clamp.
                self._live = 0
                self.double_release_count += 1
                underflow = True
        if underflow:
            warnings.warn(
                f"memory double-release: {nbytes} B released beyond the "
                f"registered total (occurrence #{self.double_release_count})",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- observation -----------------------------------------------------

    @property
    def live(self) -> int:
        """Bytes currently registered."""
        return self._live

    @property
    def peak(self) -> int:
        """High-water mark since construction or :meth:`reset_peak`."""
        return self._peak

    @property
    def total_registered(self) -> int:
        """Lifetime sum of registered bytes (monotonic)."""
        return self._total_registered

    @property
    def total_released(self) -> int:
        """Lifetime sum of released bytes (monotonic)."""
        return self._total_released

    def headroom(self) -> Optional[int]:
        """Bytes left under the budget, or ``None`` when unbudgeted."""
        if self.budget is None:
            return None
        return max(0, self.budget - self._live)

    def reset_peak(self) -> None:
        """Start a fresh peak measurement from the current live size."""
        with self._lock:
            self._peak = self._live

    def reset(self) -> None:
        """Clear all counters (used between benchmark runs).

        Buffers registered before the reset may still be alive; their
        eventual releases are recognised by epoch and ignored.
        """
        with self._lock:
            self._live = 0
            self._peak = 0
            self._total_registered = 0
            self._total_released = 0
            self._epoch += 1
            self.oom_count = 0
            self.double_release_count = 0


def current_memory_manager() -> MemoryManager:
    """The memory manager of the calling thread's current session."""
    from repro.core.session import current_session

    return current_session().memory


class TrackedBuffer:
    """Registers ``nbytes`` with a manager for its lifetime.

    :class:`repro.frame.column.Column` owns one of these per backing array.
    The manager is resolved from the calling thread's current session
    unless given explicitly, so buffers created inside ``with
    Session(...)`` blocks count against that session's budget.
    Deregistration happens via ``weakref.finalize`` so callers never need a
    ``close()`` discipline; explicit :meth:`release` supports spilling.
    """

    __slots__ = ("nbytes", "_finalizer", "__weakref__")

    def __init__(self, nbytes: int, manager: Optional[MemoryManager] = None):
        if manager is None:
            manager = current_memory_manager()
        epoch = manager.register(nbytes)
        self.nbytes = nbytes
        self._finalizer = weakref.finalize(
            self, manager._release_epoch, nbytes, epoch
        )

    def release(self) -> None:
        """Deregister now (idempotent); used when spilling to disk."""
        if self._finalizer.alive:
            self._finalizer()


@contextmanager
def memory_budget(budget: Optional[int]) -> Iterator[MemoryManager]:
    """Temporarily budget the *current session's* manager at ``budget``.

    Sets the session's ``memory.budget`` option for the context's scope
    (the option is the budget's one source), and resets peak tracking
    on entry so the recorded peak reflects only the governed region.
    """
    from repro.core.session import current_session

    session = current_session()
    try:
        with session.option_context("memory.budget", budget):
            manager = session.memory  # write the override through
            manager.reset_peak()
            yield manager
    finally:
        session.memory  # eagerly restore the pre-context budget
