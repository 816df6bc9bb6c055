"""The byte-range filesystem layer: URL dispatch, the in-memory object
store, codecs, retry-with-backoff, the I/O counts a run's record gets,
and the prefetch cache.

Remote behaviour (latency, transient failures) is exercised hermetically
through :class:`InMemoryObjectStore`'s injectable knobs -- no network.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core.session import Session
from repro.frame import DataFrame
from repro.graph.scheduler.base import ExecutionError
from repro.graph.scheduler.stats import ExecutionStats
from repro.io.fs import (
    InMemoryObjectStore,
    LocalFilesystem,
    TransientIOError,
    codec_names,
    compress_chunk,
    decompress_chunk,
    is_remote_url,
    local_path,
    memory_store,
    read_range_with_retry,
    register_codec,
    resolve_filesystem,
    url_scheme,
)
from repro.io.prefetch import fetch_range, range_cache


@pytest.fixture(autouse=True)
def _clean_io_state():
    memory_store().reset()
    range_cache().clear()
    yield
    memory_store().reset()
    range_cache().clear()


def _record() -> ExecutionStats:
    """A run's record, standing alone as a counter sink."""
    return ExecutionStats(strategy="serial")


class TestUrlDispatch:
    def test_scheme_parsing(self):
        assert url_scheme("memory://bucket/x") == "memory"
        assert url_scheme("file:///tmp/x") == "file"
        assert url_scheme("/plain/path.csv") is None
        assert url_scheme("relative/path.csv") is None
        # a "://" inside a path component is not a scheme
        assert url_scheme("dir/odd://name") is None

    def test_resolution(self, tmp_path):
        assert isinstance(resolve_filesystem(str(tmp_path)), LocalFilesystem)
        assert isinstance(resolve_filesystem("file:///x"), LocalFilesystem)
        assert resolve_filesystem("memory://b/k") is memory_store()
        with pytest.raises(ValueError, match="no filesystem registered"):
            resolve_filesystem("s3://bucket/key")

    def test_remote_classification(self):
        assert is_remote_url("memory://b/k")
        assert not is_remote_url("file:///x")
        assert not is_remote_url("/plain/path")

    def test_local_path_strips_scheme(self):
        assert local_path("file:///tmp/x") == "/tmp/x"
        assert local_path("/tmp/x") == "/tmp/x"


class TestLocalFilesystem:
    def test_stat_read_range_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "blob.bin")
        payload = bytes(range(256)) * 4
        fs = LocalFilesystem()
        with fs.open_output(path) as out:
            out.write(payload)
        st = fs.stat(path)
        assert st.size == len(payload)
        assert fs.read_range(path, 10, 20) == payload[10:20]
        assert fs.read_range(path, len(payload) - 4, 10**6) == payload[-4:]
        assert fs.exists(path)
        assert not fs.exists(os.path.join(tmp_path, "missing"))

    def test_open_output_creates_parents(self, tmp_path):
        path = os.path.join(tmp_path, "a", "b", "c.bin")
        with LocalFilesystem().open_output(path) as out:
            out.write(b"x")
        assert os.path.getsize(path) == 1


class TestInMemoryObjectStore:
    def test_put_stat_read_list(self):
        store = memory_store()
        with store.open_output("memory://b/one.bin") as out:
            out.write(b"hello ")
            out.write(b"world")
        assert store.read_range("memory://b/one.bin", 0, 5) == b"hello"
        assert store.stat("memory://b/one.bin").size == 11
        with store.open_output("memory://b/two.bin") as out:
            out.write(b"x")
        assert store.list("memory://b") == [
            "memory://b/one.bin", "memory://b/two.bin",
        ]

    def test_versioning_bumps_stat_signature(self):
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"v1")
        first = store.stat("memory://b/k").mtime_ns
        with store.open_output("memory://b/k") as out:
            out.write(b"v2")
        assert store.stat("memory://b/k").mtime_ns > first

    def test_missing_object_raises(self):
        with pytest.raises(FileNotFoundError):
            memory_store().stat("memory://nowhere/k")

    def test_partial_write_publishes_nothing(self):
        store = memory_store()
        out = store.open_output("memory://b/atomic")
        out.write(b"partial")
        # not closed: the object must not be visible yet
        assert not store.exists("memory://b/atomic")
        out.close()
        assert store.exists("memory://b/atomic")


class TestCodecs:
    def test_gzip_roundtrip(self):
        data = b"abc" * 1000
        packed = compress_chunk(data, "gzip")
        assert len(packed) < len(data)
        assert decompress_chunk(packed, "gzip") == data
        assert compress_chunk(data, None) == data
        assert "gzip" in codec_names() and "none" in codec_names()

    def test_custom_codec_registration(self):
        register_codec("rot13x", lambda d: d[::-1], lambda d: d[::-1])
        assert decompress_chunk(compress_chunk(b"abcd", "rot13x"),
                                "rot13x") == b"abcd"


class TestRetry:
    def test_transient_failures_absorbed_within_budget(self):
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"0123456789")
        store.fail_every = 2  # every other read fails
        counters = _record()
        for _ in range(2):  # the second read hits the injected failure
            data = read_range_with_retry(store, "memory://b/k", 0, 10,
                                         retries=2, backoff=0.0,
                                         counters=counters)
            assert data == b"0123456789"
        assert counters.bytes_read == 20
        assert counters.io_retries >= 1

    def test_exhaustion_raises_execution_error(self):
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"0123456789")
        store.fail_every = 1  # every read fails
        counters = _record()
        with pytest.raises(ExecutionError, match="after 3 attempts"):
            read_range_with_retry(store, "memory://b/k", 0, 10,
                                  retries=2, backoff=0.0, counters=counters)
        assert counters.io_retries == 2  # retries, not attempts
        assert counters.bytes_read == 0

    def test_policy_comes_from_session_options(self):
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"abc")
        store.fail_every = 1
        with Session(backend="pandas",
                     options={"io.retries": 0, "io.retry_backoff": 0.0}):
            with pytest.raises(ExecutionError, match="after 1 attempts"):
                read_range_with_retry(store, "memory://b/k", 0, 3)


class TestRunRecord:
    def test_reads_count_into_the_bound_run_and_nowhere_outside_one(self):
        """Per run, not per session: two records bound in turn on one
        session each get their own reads; an unbound read gets counted
        nowhere (and does not fail)."""
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"0123456789")
        first, second = _record(), _record()
        with Session(backend="pandas"):
            with first.bound():
                read_range_with_retry(store, "memory://b/k", 0, 5)
                with second.bound():  # a nested run shadows, then restores
                    read_range_with_retry(store, "memory://b/k", 0, 3)
                read_range_with_retry(store, "memory://b/k", 0, 2)
            assert read_range_with_retry(store, "memory://b/k", 0, 4) == b"0123"
        assert (first.bytes_read, second.bytes_read) == (7, 3)

    def test_a_binding_is_per_thread(self):
        """A thread sees only what was bound on it: the scheduler binds
        the run's record around every node it runs on a pool thread."""
        store = memory_store()
        with store.open_output("memory://b/k") as out:
            out.write(b"0123456789")
        run = _record()
        with run.bound():
            worker = threading.Thread(
                target=read_range_with_retry,
                args=(store, "memory://b/k", 0, 10),
            )
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert run.bytes_read == 0

    def test_thread_safety(self):
        counters = _record()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def bump():
                for _ in range(1000):
                    counters.add(bytes_read=1, prefetch_hits=1)

            threads = [threading.Thread(target=bump) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counters.bytes_read == counters.prefetch_hits == 8000


class TestPrefetchCache:
    def _put(self, key: str, payload: bytes) -> str:
        url = f"memory://b/{key}"
        with memory_store().open_output(url) as out:
            out.write(payload)
        return url

    def test_submit_then_consume_counts_hit(self):
        url = self._put("k", b"0123456789")
        counters = _record()
        cache = range_cache()
        cache.submit(url, 2, 8, counters=counters, retries=0, backoff=0.0)
        with counters.bound():
            data = fetch_range(url, 2, 8)
        assert data == b"234567"
        assert counters.ranges_prefetched == 1
        assert counters.prefetch_hits == 1
        assert counters.bytes_read == 6  # fetched once, by the worker

    def test_consume_is_once(self):
        url = self._put("k", b"0123456789")
        counters = _record()
        cache = range_cache()
        cache.submit(url, 0, 4, counters=counters, retries=0, backoff=0.0)
        with counters.bound():
            fetch_range(url, 0, 4)
            before = memory_store().range_reads
            fetch_range(url, 0, 4)  # second read is direct
        assert memory_store().range_reads == before + 1
        assert counters.prefetch_hits == 1

    def test_purge_url_leaves_nothing_pending(self):
        url = self._put("k", b"x" * 100)
        counters = _record()
        cache = range_cache()
        for i in range(5):
            cache.submit(url, i * 10, i * 10 + 10, counters=counters,
                         retries=0, backoff=0.0)
        cache.purge_url(url)
        assert cache.pending_count() == 0

    def test_budget_eviction_keeps_cache_bounded(self):
        counters = _record()
        cache = range_cache()
        urls = [self._put(f"k{i}", bytes(64)) for i in range(8)]
        for url in urls:
            cache.submit(url, 0, 64, counters=counters, retries=0,
                         backoff=0.0, budget=128)
        # drain workers deterministically: consuming forces completion
        held = sum(1 for url in urls if fetch_range(url, 0, 64))
        assert held == 8  # every consume still yields correct bytes
        assert cache.pending_count() == 0

    def test_prefetch_error_surfaces_at_consume(self):
        url = self._put("k", b"0123456789")
        memory_store().fail_every = 1
        counters = _record()
        cache = range_cache()
        cache.submit(url, 0, 10, counters=counters, retries=0, backoff=0.0)
        with pytest.raises(ExecutionError):
            cache.consume(url, 0, 10)


class TestFaultInjectionThroughScheduler:
    """Satellite: transient remote failures under real plan execution."""

    def _columnar_url(self, rows: int = 400) -> str:
        from repro.io import write_columnar

        frame = DataFrame({
            "a": np.arange(rows, dtype=np.int64),
            "s": np.array([f"g{i % 4}" for i in range(rows)], dtype=object),
        })
        url = "memory://bench/flaky.lfc"
        write_columnar(frame, url, row_group_rows=100)
        return url

    @pytest.mark.parametrize("strategy", ["serial", "threaded"])
    def test_flaky_store_succeeds_within_retry_budget(self, strategy):
        import repro.lazyfatpandas.pandas as lfp

        url = self._columnar_url()
        memory_store().fail_every = 2  # every other read fails
        with Session(backend="pandas",
                     options={"executor.strategy": strategy,
                              "io.retries": 8,
                              "io.retry_backoff": 0.0}) as session:
            lf = lfp.scan_columnar(url)
            out = lf[lf["a"] >= 390][["a"]].collect()
            retried = session.last_execution_stats.io_retries
        assert out.column("a").to_array().tolist() == list(range(390, 400))
        assert retried >= 1
        assert range_cache().pending_count() == 0

    def test_failures_beyond_budget_surface_cleanly(self):
        import repro.lazyfatpandas.pandas as lfp

        url = self._columnar_url()
        memory_store().fail_every = 1  # nothing ever succeeds
        with Session(backend="pandas",
                     options={"io.retries": 1,
                              "io.retry_backoff": 0.0}) as session:
            live_before = session.memory.live
            lf = lfp.scan_columnar(url)
            with pytest.raises(Exception) as excinfo:
                lf[["a"]].collect()
            # the transient failure surfaces as a clean execution error,
            # not a raw TransientIOError from deep inside a worker
            assert "failed after" in str(excinfo.value)
            assert session.memory.live == live_before  # no leaked buffers
        assert range_cache().pending_count() == 0

    def test_threaded_failure_leaves_no_pending_prefetches(self):
        import repro.lazyfatpandas.pandas as lfp

        url = self._columnar_url()
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded",
                              "io.retry_backoff": 0.0}) as session:
            lf = lfp.scan_columnar(url)
            lf[["s"]].collect()  # warm run, prefetch issued and consumed
            live_before = session.memory.live
            memory_store().fail_every = 1
            with pytest.raises(Exception):
                lf[lf["a"] > 0][["a"]].collect()
            live_after = session.memory.live
        assert range_cache().pending_count() == 0
        assert live_after <= live_before  # the failed run leaked nothing
