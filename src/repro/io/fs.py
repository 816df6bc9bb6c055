"""Byte-range filesystem abstraction: the scan layer's road off localhost.

Every remote-capable format reads through one small protocol,
:class:`ByteRangeFilesystem` (``stat`` / ``list`` / ``read_range`` /
``open_output``), resolved from a URL's scheme exactly like dask's
``open_files`` dispatches on protocol.  Two implementations ship:

- :class:`LocalFilesystem` for plain paths and ``file://`` URLs,
- :class:`InMemoryObjectStore` for ``memory://`` URLs -- the test double
  for an object store, with injectable per-range latency and transient
  failure rates so remote behaviour (latency overlap, retry budgets) is
  exercised hermetically.

On top of the protocol live the pieces every consumer shares: a
pluggable compression-codec registry (gzip built-in) and bounded
retry-with-backoff over transient range-read failures, counted
(``bytes_read`` / ``io_retries``) into the record of the run the read
is for (:mod:`repro.graph.scheduler.stats`).
"""

from __future__ import annotations

import dataclasses
import gzip as _gzip
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.scheduler.stats import ExecutionStats, count


@dataclasses.dataclass(frozen=True)
class FileStat:
    """What a filesystem knows about one object without reading it."""

    url: str
    size: int
    #: modification time in nanoseconds (object stores use a version
    #: counter); part of the cache-invalidation stat signature.
    mtime_ns: int


class TransientIOError(IOError):
    """A range read failed in a way a retry may fix (the object-store
    analogue of a dropped connection or a 503)."""


class ByteRangeFilesystem:
    """Protocol for random-access byte reads, keyed by URL."""

    scheme = "abstract"

    def stat(self, url: str) -> FileStat:
        raise NotImplementedError

    def list(self, url: str) -> List[str]:
        """URLs directly under a directory/prefix, sorted."""
        raise NotImplementedError

    def read_range(self, url: str, start: int, end: int) -> bytes:
        """Bytes ``[start, end)`` of the object (end clamped to size)."""
        raise NotImplementedError

    def open_output(self, url: str):
        """Binary write handle (context manager) replacing the object."""
        raise NotImplementedError

    def exists(self, url: str) -> bool:
        try:
            self.stat(url)
            return True
        except (OSError, KeyError):
            return False


def local_path(url: str) -> str:
    """Strip a ``file://`` prefix; plain paths pass through."""
    if url.startswith("file://"):
        return url[len("file://"):]
    return url


class LocalFilesystem(ByteRangeFilesystem):
    """The local disk behind the byte-range protocol."""

    scheme = "file"

    def stat(self, url: str) -> FileStat:
        path = local_path(url)
        st = os.stat(path)
        return FileStat(url=url, size=st.st_size, mtime_ns=st.st_mtime_ns)

    def list(self, url: str) -> List[str]:
        path = local_path(url)
        return sorted(os.path.join(path, name) for name in os.listdir(path))

    def read_range(self, url: str, start: int, end: int) -> bytes:
        with open(local_path(url), "rb") as f:
            f.seek(start)
            return f.read(max(0, end - start))

    def open_output(self, url: str):
        path = local_path(url)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, "wb")


class _MemoryOutput:
    """Write handle that publishes into the store atomically on close."""

    def __init__(self, store: "InMemoryObjectStore", key: str):
        self._store = store
        self._key = key
        self._chunks: List[bytes] = []
        self._closed = False

    def write(self, data: bytes) -> int:
        self._chunks.append(bytes(data))
        return len(data)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._store._put(self._key, b"".join(self._chunks))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class InMemoryObjectStore(ByteRangeFilesystem):
    """A process-local object store for ``memory://`` URLs.

    The "remote" test double: ``latency`` seconds are charged per range
    read, and ``fail_every=N`` makes every Nth range read raise
    :class:`TransientIOError` -- exactly the failure shape the retry
    layer must absorb.  Objects are versioned (``mtime_ns`` bumps on
    every write) so stat signatures invalidate caches like real
    mutation does.
    """

    scheme = "memory"

    def __init__(self):
        self._lock = threading.Lock()
        self._objects: Dict[str, Tuple[bytes, int]] = {}
        self._version = 0
        #: injectable remote behaviour (tests and benchmarks set these).
        self.latency = 0.0
        self.fail_every = 0
        #: total read_range calls answered (failures included).
        self.range_reads = 0
        self._read_count = 0

    @staticmethod
    def _key(url: str) -> str:
        if url.startswith("memory://"):
            return url[len("memory://"):]
        return url.lstrip("/")

    def _put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._version += 1
            self._objects[key] = (data, self._version)

    def reset(self) -> None:
        """Drop every object and injected behaviour (test isolation)."""
        with self._lock:
            self._objects.clear()
            self.latency = 0.0
            self.fail_every = 0
            self.range_reads = 0
            self._read_count = 0

    def stat(self, url: str) -> FileStat:
        key = self._key(url)
        with self._lock:
            if key not in self._objects:
                raise FileNotFoundError(f"memory://{key}")
            data, version = self._objects[key]
        return FileStat(url=url, size=len(data), mtime_ns=version)

    def list(self, url: str) -> List[str]:
        prefix = self._key(url).rstrip("/")
        prefix = prefix + "/" if prefix else ""
        with self._lock:
            keys = sorted(k for k in self._objects if k.startswith(prefix))
        return [f"memory://{k}" for k in keys]

    def read_range(self, url: str, start: int, end: int) -> bytes:
        key = self._key(url)
        with self._lock:
            if key not in self._objects:
                raise FileNotFoundError(f"memory://{key}")
            data, _ = self._objects[key]
            self.range_reads += 1
            self._read_count += 1
            fail = self.fail_every and self._read_count % self.fail_every == 0
            latency = self.latency
        if latency:
            time.sleep(latency)
        if fail:
            raise TransientIOError(
                f"injected failure on range read #{self.range_reads} "
                f"of memory://{key}"
            )
        return data[start:end]

    def open_output(self, url: str):
        return _MemoryOutput(self, self._key(url))


# ---------------------------------------------------------------------------
# Protocol-dispatched resolution (dask's open_files shape).
# ---------------------------------------------------------------------------

_LOCAL = LocalFilesystem()
_MEMORY = InMemoryObjectStore()

_FILESYSTEMS: Dict[str, Callable[[], ByteRangeFilesystem]] = {
    "file": lambda: _LOCAL,
    "memory": lambda: _MEMORY,
}


def memory_store() -> InMemoryObjectStore:
    """The process-global ``memory://`` store (reset it between tests)."""
    return _MEMORY


def register_filesystem(
    scheme: str, factory: Callable[[], ByteRangeFilesystem]
) -> None:
    """Register a scheme -> filesystem factory (third-party stores)."""
    _FILESYSTEMS[str(scheme).lower()] = factory


def url_scheme(url: str) -> Optional[str]:
    """The URL's scheme, or ``None`` for plain local paths."""
    head, sep, _ = url.partition("://")
    if not sep or os.sep in head or "/" in head:
        return None
    return head.lower()


def resolve_filesystem(url: str) -> ByteRangeFilesystem:
    """The filesystem serving ``url`` (plain paths go to local disk)."""
    scheme = url_scheme(url)
    if scheme is None:
        return _LOCAL
    factory = _FILESYSTEMS.get(scheme)
    if factory is None:
        raise ValueError(
            f"no filesystem registered for scheme {scheme!r} "
            f"(known: {sorted(_FILESYSTEMS)})"
        )
    return factory()


def is_remote_url(url: str) -> bool:
    """True when ``url`` is served by a non-local filesystem."""
    scheme = url_scheme(url)
    return scheme is not None and scheme != "file"


# ---------------------------------------------------------------------------
# Compression codecs.
# ---------------------------------------------------------------------------

_CODECS: Dict[str, Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]]
_CODECS = {
    "none": (lambda data: data, lambda data: data),
    "gzip": (
        lambda data: _gzip.compress(data, compresslevel=1),
        _gzip.decompress,
    ),
}


def register_codec(
    name: str,
    compress: Callable[[bytes], bytes],
    decompress: Callable[[bytes], bytes],
) -> None:
    _CODECS[str(name).lower()] = (compress, decompress)


def codec_names() -> List[str]:
    return sorted(_CODECS)


def compress_chunk(data: bytes, codec: Optional[str]) -> bytes:
    return _CODECS[str(codec or "none").lower()][0](data)


def decompress_chunk(data: bytes, codec: Optional[str]) -> bytes:
    return _CODECS[str(codec or "none").lower()][1](data)


def _retry_policy() -> Tuple[int, float]:
    """(retries, backoff seconds) from the active session's options."""
    from repro.core.session import current_session

    try:
        session = current_session()
        return (
            int(session.get_option("io.retries")),
            float(session.get_option("io.retry_backoff")),
        )
    except Exception:
        return 2, 0.005


def read_range_with_retry(
    fs: ByteRangeFilesystem,
    url: str,
    start: int,
    end: int,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    counters: Optional[ExecutionStats] = None,
) -> bytes:
    """One range read with bounded retry-with-backoff.

    :class:`TransientIOError` is retried up to ``io.retries`` times with
    exponential backoff; exhaustion surfaces as the scheduler's
    :class:`~repro.graph.scheduler.base.ExecutionError` (infrastructure
    failure, not a plan bug).  Successful reads count ``bytes_read``
    once -- prefetch-cache hits never re-enter here -- into ``counters``
    (a prefetch thread's explicit sink), else into the run bound on the
    calling thread.
    """
    if retries is None or backoff is None:
        opt_retries, opt_backoff = _retry_policy()
        retries = opt_retries if retries is None else retries
        backoff = opt_backoff if backoff is None else backoff
    add = counters.add if counters is not None else count
    last_error: Optional[Exception] = None
    for attempt in range(int(retries) + 1):
        try:
            data = fs.read_range(url, start, end)
        except TransientIOError as exc:
            last_error = exc
            if attempt < retries:
                add(io_retries=1)
                time.sleep(backoff * (2 ** attempt))
            continue
        add(bytes_read=len(data))
        return data
    from repro.graph.scheduler.base import ExecutionError

    raise ExecutionError(
        f"range read {url!r} [{start}, {end}) failed after "
        f"{int(retries) + 1} attempts: {last_error}"
    ) from last_error
