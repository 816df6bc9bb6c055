"""The session's source table: one snapshot of each source per session."""

import os
import sys
import threading

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
import repro.io.csv_source as csv_source
from repro.core.session import Session
from repro.frame import DataFrame
from repro.io import memory_store, write_columnar
from repro.io.source_table import session_source
from repro.metastore import MetaStore


@pytest.fixture
def counted(monkeypatch):
    """Header reads and metastore decodes, per file."""
    calls = {"header": [], "meta": []}
    read_header = csv_source.read_header
    get = MetaStore.get

    def counting_header(path):
        calls["header"].append(path)
        return read_header(path)

    def counting_get(self, path):
        calls["meta"].append(path)
        return get(self, path)

    monkeypatch.setattr(csv_source, "read_header", counting_header)
    monkeypatch.setattr(MetaStore, "get", counting_get)
    return calls


@pytest.fixture
def store(tmp_path):
    return MetaStore(os.path.join(tmp_path, "meta"))


def _table(make_csv, rows=400):
    return make_csv({"x": np.arange(rows), "y": np.arange(rows) % 7,
                     "tag": np.array([f"t{i % 3}" for i in range(rows)],
                                     dtype=object)}, "t.csv")


class TestReadOnce:
    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    def test_one_header_and_one_decode_per_file(self, make_csv, store,
                                                counted, backend):
        path = _table(make_csv)
        store.compute_and_store(path)
        with Session(backend=backend, metastore=store):
            df = lfp.read_csv(path)
            first = df[df.x > 10].y.sum().collect()
            second = df[df.y > 2].x.sum().collect()
        assert first == sum(i % 7 for i in range(11, 400))
        assert second == sum(i for i in range(400) if i % 7 > 2)
        assert counted["header"] == [path]
        assert counted["meta"] == [path]

    def test_hinted_and_unhinted_scans_share_a_source(self, make_csv, store):
        path = _table(make_csv)
        with Session(backend="pandas", metastore=store) as s:
            plain = session_source({"format": "csv", "path": path}, store)
            hinted = session_source({"format": "csv", "path": path,
                                     "dtype": {"y": "float64"},
                                     "parse_dates": None}, store)
            chunked = session_source({"format": "csv", "path": path,
                                      "partition_bytes": 512}, store)
            assert hinted is plain
            assert chunked is not plain and chunked.facts is plain.facts
        with Session(backend="pandas", metastore=store):
            assert session_source({"format": "csv", "path": path},
                                  store) is not plain
        assert s.sources.source({"format": "csv", "path": path},
                                store) is plain


class TestStaleness:
    def test_rewritten_csv_shows_its_new_header(self, make_csv, counted):
        path = make_csv({"a": np.arange(5), "b": np.arange(5)}, "s.csv")
        with Session(backend="pandas"):
            assert lfp.read_csv(path).collect().columns == ["a", "b"]
            DataFrame({"a": np.arange(6), "c": np.arange(6) * 10}).to_csv(path)
            out = lfp.read_csv(path).collect()
        assert out.columns == ["a", "c"]
        assert out.column("c").to_array().tolist() == [0, 10, 20, 30, 40, 50]
        assert counted["header"] == [path, path]

    def test_overwritten_memory_object_shows_its_new_columns(self):
        url = "memory://table/stale.lfc"
        memory_store().reset()
        try:
            write_columnar(DataFrame({"a": np.arange(4)}), url)
            # in this process: a forked worker holds the store it forked
            with Session(backend="pandas",
                         options={"executor.strategy": "serial"}):
                assert lfp.scan_columnar(url).collect().columns == ["a"]
                write_columnar(DataFrame({"a": np.arange(4),
                                          "z": np.arange(4) + 1}), url)
                out = lfp.scan_columnar(url).collect()
        finally:
            memory_store().reset()
        assert out.columns == ["a", "z"]
        assert out.column("z").to_array().tolist() == [1, 2, 3, 4]

    def test_metastore_put_reaches_the_next_dtype_hints(self, make_csv, store):
        path = _table(make_csv)
        with Session(backend="pandas", metastore=store):
            df = lfp.read_csv(path)
            assert df.x.sum().collect() == sum(range(400))
            before = df[df.x > 1].explain()
            store.compute_and_store(path)
            after = df[df.x > 1].explain()
        assert "dtype=" not in before
        assert "'tag': 'category'" in after


class TestPooledStrategies:
    @pytest.mark.deadline(120)
    @pytest.mark.parametrize("strategy", ["threaded", "process"])
    def test_two_scans_of_one_file_match_serial(self, make_csv, store,
                                                strategy):
        path = _table(make_csv)
        store.compute_and_store(path)

        def run(options):
            with Session(backend="dask", metastore=store,
                         options=options) as s:
                plain = lfp.read_csv(path)
                hinted = lfp.read_csv(path, dtype={"y": "float64"})
                both = plain[plain.x > 50].merge(
                    hinted[["x", "y"]], on="x", suffixes=("", "_h"))
                frame = both.collect()
                s.close()
            arrays = {name: frame.column(name).to_array()
                      for name in frame.columns}
            return {name: (str(a.dtype), a.tolist())
                    for name, a in arrays.items()}

        serial = run({"executor.strategy": "serial"})
        pooled = run({"executor.strategy": strategy,
                      "executor.max_workers": 2})
        assert pooled == serial
        assert serial["x"] == ("int64", list(range(51, 400)))
        # the hinted scan reads with its own dtype, the plain one without
        assert serial["y"] == ("int64", [i % 7 for i in range(51, 400)])
        assert serial["y_h"] == ("float64",
                                 [float(i % 7) for i in range(51, 400)])


class TestConcurrentLookups:
    @pytest.mark.deadline(60)
    def test_threads_get_one_source_per_identity(self, make_csv):
        """A pooled run's threads look sources up while others insert:
        every lookup of one identity returns the one inserted source."""
        path = _table(make_csv)
        table = Session(backend="pandas").sources
        shapes = [{"format": "csv", "path": path},
                  {"format": "csv", "path": path, "partition_bytes": 256},
                  {"format": "csv", "path": path, "nrows": 5}]
        seen = [[] for _ in range(8)]
        start = threading.Barrier(len(seen))

        def look(out):
            start.wait(timeout=10)
            for _ in range(100):
                out.extend(table.source(args) for args in shapes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look, args=(out,))
                       for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(len(shapes)):
            sources = {id(out[j]) for out in seen
                       for j in range(i, len(out), len(shapes))}
            assert len(sources) == 1
        firsts = [seen[0][i] for i in range(len(shapes))]
        assert all(s.facts is firsts[0].facts for s in firsts)


class TestOneSourcePerSession:
    def test_invariant_tool_rejects_a_fresh_source(self):
        import ast
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_invariants.py")
        spec = importlib.util.spec_from_file_location("check_invariants",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for fresh in (
            "source = resolve_source(node.args, metastore=metastore)",
            "columns = registry.resolve_source(args).schema()",
            "from repro.io import resolve_source\nresolve_source(args)",
        ):
            for module in ("core/optimizer/partition_pruning.py",
                           "backends/base.py", "io/prefetch.py"):
                assert list(tool.check_one_source_per_session(
                    ast.parse(fresh), module)), (fresh, module)
        # the table, the registry, and imports or mentions without a call
        call = "source = resolve_source(args, metastore=metastore)"
        for module in ("io/source_table.py", "io/registry.py"):
            assert not list(tool.check_one_source_per_session(
                ast.parse(call), module))
        assert not list(tool.check_one_source_per_session(
            ast.parse("from repro.io.registry import resolve_source\n"
                      "__all__ = ['resolve_source']"), "io/__init__.py"))
        assert tool.run() == []

