"""Spill-backed staging for the shuffle operators.

:class:`ShuffleStore` backs ``shuffle_write`` / ``shuffle_read`` (the
partition cut, ``repro.core.optimizer.partitions``, emits them): P hash
buckets of frame chunks, one store per shuffled side, filled by one
write per piece.  Chunks live in memory (their
:class:`~repro.frame.column.Column` buffers charged to the session's
``memory.budget``) until headroom runs out, then are pickled onto the
end of the store's one spill file and their buffers released; the
chunk stays in its bucket as an ``(offset, length)``.  Reading a bucket
back ``pread``s its chunks (distinct buckets drain from concurrent
threads over the one descriptor) and re-registers the bytes.  Nothing
is reclaimed chunk by chunk: a file created and deleted per chunk cost
more than the pickling it carried.

A spilled chunk is the pickle of ``(name, Column)`` pairs rather than
JSONL/CSV: ``Column.__getstate__`` round-trips values, categories, and
dtype exactly, which the bit-identity contract of the shuffle path
requires, and carries the chunk's string-payload byte count so reading
a bucket back re-registers its bytes without walking the strings.  The
file lives in a ``tempfile.mkdtemp`` under ``memory.spill_dir`` (or the
system tmpdir), created at the first spill -- a store that never spills
touches no disk -- and both go when the store is explicitly closed or
garbage-collected.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from typing import List, Optional, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.concat import concat_consuming, shallow_copy
from repro.frame.dataframe import DataFrame
from repro.graph.scheduler.stats import count

_EMPTY_IDX = np.empty(0, dtype=np.int64)

#: every not-yet-closed store, so headroom pressure in one operator can
#: spill chunks held by *another* operator's store (a merge keeps two
#: stores live at once; spilling only your own cannot free the other
#: side's bytes).  Weak so abandoned stores never pin their chunks.
#:
#: Ownership contract: a ShuffleStore's spill files belong to the
#: *execution* that created it and die with ``close()`` (or the
#: finalizer) -- at session close at the latest.  Results that outlive
#: their creating session belong to the cross-session
#: :class:`repro.cache.result_cache.ResultCache` instead, which keeps
#: its own directory and deletes an entry's file at *eviction* time,
#: never waiting for any session to close.  The two tiers never share
#: files: caching a shuffle-derived result serializes the materialized
#: value into the cache's directory, so evicting it can never touch a
#: live store's chunks (and a store closing can never strand a cached
#: result).
_LIVE_STORES: "weakref.WeakSet[ShuffleStore]" = weakref.WeakSet()


def live_store_count() -> int:
    """Number of not-yet-closed stores (a shuffle is in flight)."""
    return len(_LIVE_STORES)


def _disarm_after_fork() -> None:
    # A forked child inherits every live store -- and each store's
    # finalizer, which would close the spill file and rmtree the
    # PARENT's spill directory when the child exits or collects the
    # store.  Detach them all in the child (the parent's copies are
    # untouched; memory is separate), forget the descriptor without
    # closing it -- the child's copy dies with the child -- and forget
    # the stores so child-side spill pressure cannot append to a file
    # whose offsets the parent owns.
    for store in list(_LIVE_STORES):
        if store._finalizer is not None:
            store._finalizer.detach()
            store._finalizer = None
        store._fd = None
        _LIVE_STORES.discard(store)


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_disarm_after_fork)


def spill_live_stores(nbytes: int) -> int:
    """Spill across all live stores, fullest first, until ``nbytes``
    are freed (or nothing in-memory remains).  Returns bytes freed."""
    stores = sorted(
        _LIVE_STORES, key=lambda s: -s.in_memory_bytes()
    )
    freed = 0
    for store in stores:
        if freed >= nbytes:
            break
        freed += store.spill(nbytes - freed)
    return freed


def session_spill_dir() -> Optional[str]:
    """The current session's ``memory.spill_dir`` (None: the system
    tmpdir), where every spill of the session's engine goes."""
    try:
        from repro.core.session import current_session

        value = current_session().options.get("memory.spill_dir")
        return str(value) if value is not None else None
    except Exception:
        return None


def _remove_spill(fd: int, directory: str) -> None:
    os.close(fd)
    shutil.rmtree(directory, ignore_errors=True)


class _SpilledChunk:
    """On-disk replacement for an in-memory bucket chunk: where its
    pickle sits in the store's spill file, and the tracked bytes it
    had in memory."""

    __slots__ = ("offset", "length", "nbytes")

    def __init__(self, offset: int, length: int, nbytes: int) -> None:
        self.offset = offset
        self.length = length
        self.nbytes = nbytes


_Chunk = Union[DataFrame, _SpilledChunk]


class ShuffleStore:
    """Hash-bucket staging area between shuffle_write and shuffle_read.

    The write phase appends per-bucket frame chunks (and may spill);
    the read phase drains one bucket at a time.  Distinct buckets may
    be drained from concurrent threads -- all chunk-list mutation is
    guarded by one lock.
    """

    def __init__(
        self, n_buckets: int, spill_dir: Optional[str] = None
    ) -> None:
        self.n_buckets = int(n_buckets)
        self._spill_root = spill_dir
        #: the spill file's descriptor and its length so far (appends
        #: happen under ``_lock``; reads are positional)
        self._fd: Optional[int] = None
        self._file_end = 0
        self._chunks: List[List[_Chunk]] = [[] for _ in range(self.n_buckets)]
        self._template: Optional[DataFrame] = None
        self._lock = threading.Lock()
        self._finalizer: Optional[weakref.finalize] = None
        #: total bytes written to spill files (monotonic counter)
        self.bytes_spilled = 0
        #: number of chunks that hit disk
        self.spill_chunks = 0
        #: rows written so far: the position of the next piece's first
        #: row (:func:`repro.backends.shuffle_ops.hash_split`)
        self.rows = 0
        #: total in-memory bytes ever appended (monotonic); divided by
        #: ``n_buckets`` this predicts a bucket's materialized size far
        #: better than the planner's disk-based estimate.
        self.appended_bytes = 0
        _LIVE_STORES.add(self)

    # -- write phase ---------------------------------------------------

    def set_template(self, frame: DataFrame) -> None:
        """Remember a zero-row frame for empty buckets.

        Rebuilt with payload-owning columns: a plain ``take`` would
        share (and so pin) the source partition's heap payload for the
        store's whole lifetime."""
        if self._template is not None:
            return
        empty = frame.take(_EMPTY_IDX)
        cols = {}
        for name in empty.columns:
            col = empty.column(name)
            if col.is_category:
                cols[name] = Column(
                    col.values, categories=col.categories
                )
            else:
                cols[name] = Column(col.values)
        self._template = DataFrame.from_columns(cols)

    def append(self, bucket: int, frame: DataFrame) -> None:
        if len(frame) == 0:
            return
        with self._lock:
            self._chunks[bucket].append(frame)
            self.appended_bytes += frame.nbytes

    def bucket_estimate(self) -> int:
        """Predicted in-memory size of one materialized bucket."""
        return max(1, self.appended_bytes // max(1, self.n_buckets))

    def in_memory_bytes(self) -> int:
        with self._lock:
            return sum(
                chunk.nbytes
                for bucket in self._chunks
                for chunk in bucket
                if isinstance(chunk, DataFrame)
            )

    def spill(self, nbytes: int) -> int:
        """Spill in-memory chunks, largest first, until ``nbytes`` are
        freed (or nothing in-memory remains).  Returns bytes freed."""
        with self._lock:
            resident = [
                (chunk.nbytes, b, i)
                for b, bucket in enumerate(self._chunks)
                for i, chunk in enumerate(bucket)
                if isinstance(chunk, DataFrame)
            ]
            resident.sort(key=lambda t: (-t[0], t[1], t[2]))
            freed = 0
            for size, b, i in resident:
                if freed >= nbytes:
                    break
                chunk = self._chunks[b][i]
                assert isinstance(chunk, DataFrame)
                self._chunks[b][i] = self._spill_chunk(chunk)
                freed += size
            return freed

    def spill_all(self) -> int:
        """Spill every in-memory chunk."""
        return self.spill(1 << 62)

    def _spill_chunk(self, frame: DataFrame) -> _SpilledChunk:
        payload = pickle.dumps(
            [(name, frame.column(name)) for name in frame.columns],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        nbytes = frame.nbytes
        fd = self._ensure_file()
        offset = self._file_end
        written = 0
        while written < len(payload):
            written += os.pwrite(
                fd, memoryview(payload)[written:], offset + written
            )
        self._file_end = offset + len(payload)
        self.bytes_spilled += nbytes
        self.spill_chunks += 1
        # into the run whose pressure forced this chunk out, whenever
        # that is: long after the store's shuffle_write node finished
        count(bytes_spilled=nbytes)
        # dropping the frame reference releases its tracked buffers
        return _SpilledChunk(offset, len(payload), nbytes)

    def _ensure_file(self) -> int:
        if self._fd is None:
            root = self._spill_root
            if root is not None:
                os.makedirs(root, exist_ok=True)
            directory = tempfile.mkdtemp(prefix="lafp-shuffle-", dir=root)
            self._fd = os.open(
                os.path.join(directory, "chunks.pkl"),
                os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600,
            )
            self._finalizer = weakref.finalize(
                self, _remove_spill, self._fd, directory
            )
            count(spill_files=1)
        return self._fd

    # -- read phase ----------------------------------------------------

    def read_bucket(self, bucket: int) -> DataFrame:
        """Drain bucket ``bucket`` into one eager frame (consuming).

        Failure-atomic: the bucket's chunks go back into the store if
        building the output raises (a spilled chunk is still where its
        offset says), so a
        :class:`~repro.memory.manager.SimulatedMemoryError` mid-drain
        leaves everything in place for the reader to spill and read
        again (:func:`repro.backends.shuffle_ops.drain_bucket`).
        """
        with self._lock:
            chunks = self._chunks[bucket]
            self._chunks[bucket] = []
        try:
            out = self._build_bucket_frame(chunks)
        except BaseException:
            with self._lock:
                self._chunks[bucket] = chunks + self._chunks[bucket]
            raise
        return out

    def _build_bucket_frame(self, chunks: List[_Chunk]) -> DataFrame:
        pieces: List[DataFrame] = []
        for chunk in chunks:
            if isinstance(chunk, _SpilledChunk):
                payload = pickle.loads(self._pread(chunk))
                pieces.append(DataFrame.from_columns(dict(payload)))
            else:
                pieces.append(chunk)
        if not pieces:
            if self._template is None:
                raise RuntimeError("ShuffleStore has no data and no template")
            return self._template.take(_EMPTY_IDX)
        if len(pieces) == 1:
            return pieces[0]
        # concat through shallow wrappers: concat_consuming empties the
        # frames it is given, and these chunks must survive a mid-concat
        # OOM so the caller can restore them
        out = concat_consuming([shallow_copy(piece) for piece in pieces])
        assert isinstance(out, DataFrame)
        return out

    def _pread(self, chunk: _SpilledChunk) -> bytes:
        if self._fd is None:
            raise RuntimeError("ShuffleStore's spill file is gone")
        parts = []
        got = 0
        while got < chunk.length:
            part = os.pread(self._fd, chunk.length - got, chunk.offset + got)
            if not part:
                raise EOFError("ShuffleStore's spill file is truncated")
            parts.append(part)
            got += len(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def close(self) -> None:
        """Drop all chunks and remove the spill file and its directory."""
        _LIVE_STORES.discard(self)
        with self._lock:
            self._chunks = [[] for _ in range(self.n_buckets)]
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._fd = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShuffleStore buckets={self.n_buckets} "
            f"spilled={self.bytes_spilled}B>"
        )
