"""The ``.lfc`` columnar container: write/read round-trips, footer
statistics, chunk-skipping scans, byte accounting, and the scheduler's
prefetch integration.

The contract under test: a columnar scan must collect exactly what the
equivalent CSV scan collects, while reading only the byte ranges of the
columns and chunks the plan actually needs.
"""

import os

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame
from repro.io import (
    ColumnarSource,
    Predicate,
    memory_store,
    read_columnar_footer,
    write_columnar,
)
from repro.io.api import sibling_variant
from repro.io.prefetch import range_cache


@pytest.fixture(autouse=True)
def _clean_io_state():
    memory_store().reset()
    range_cache().clear()
    yield
    memory_store().reset()
    range_cache().clear()


def _mixed_frame(n: int = 120) -> DataFrame:
    rng = np.random.default_rng(7)
    floats = np.round(rng.normal(10, 5, n), 3)
    floats[::17] = np.nan
    strings = np.array(
        [None if i % 19 == 0 else f"tag{i % 5}" for i in range(n)],
        dtype=object,
    )
    stamps = np.array(
        [f"2024-{(i % 12) + 1:02d}-{(i % 27) + 1:02d} 08:00:00"
         for i in range(n)],
        dtype=object,
    ).astype("datetime64[ns]")
    return DataFrame({
        "i": np.arange(n, dtype=np.int64),
        "f": floats,
        "b": (np.arange(n) % 2 == 0),
        "s": strings,
        "t": stamps,
        "mixed": np.array(
            [i if i % 2 else f"x{i}" for i in range(n)], dtype=object
        ),
    })


def _frames_equal(a, b) -> bool:
    if list(a.columns) != list(b.columns):
        return False
    for c in a.columns:
        left, right = a.column(c).to_array(), b.column(c).to_array()
        if left.dtype.kind == "f":
            if not np.allclose(left, right, equal_nan=True):
                return False
        elif not np.array_equal(left, right):
            return False
    return True


class TestRoundTrip:
    @pytest.mark.parametrize("codec", [None, "gzip"])
    def test_all_dtypes_round_trip(self, tmp_path, codec):
        frame = _mixed_frame()
        path = os.path.join(tmp_path, "t.lfc")
        write_columnar(frame, path, row_group_rows=32, codec=codec)
        source = ColumnarSource(path)
        got = [source.read_partition(p) for p in source.partitions()]
        rebuilt_cols = {
            c: np.concatenate([g.column(c).to_array() for g in got])
            for c in frame.columns
        }
        for name in frame.columns:
            want = frame.column(name).to_array()
            have = rebuilt_cols[name]
            if want.dtype.kind == "f":
                assert np.allclose(want, have, equal_nan=True), name
            else:
                assert np.array_equal(want, have), name

    def test_remote_round_trip(self):
        frame = _mixed_frame(50)
        write_columnar(frame, "memory://lake/t.lfc", row_group_rows=20)
        source = ColumnarSource("memory://lake/t.lfc")
        assert source.schema() == list(frame.columns)
        total = sum(len(f) for f in source.scan())
        assert total == 50

    def test_footer_statistics_are_exact(self, tmp_path):
        frame = _mixed_frame(64)
        path = os.path.join(tmp_path, "t.lfc")
        write_columnar(frame, path, row_group_rows=64)
        footer = read_columnar_footer(path)
        assert footer["n_rows"] == 64
        (group,) = footer["row_groups"]
        ints = group["chunks"]["i"]
        assert (ints["min"], ints["max"]) == (0, 63)
        floats = group["chunks"]["f"]
        assert floats["null_count"] == int(
            np.isnan(frame.column("f").to_array()).sum()
        )
        strings = group["chunks"]["s"]
        assert strings["encoding"] == "dict"
        assert strings["null_count"] > 0
        assert set(strings["dict"]) == {f"tag{i}" for i in range(5)}

    def test_dtypes_come_from_footer(self, tmp_path):
        frame = _mixed_frame(16)
        path = os.path.join(tmp_path, "t.lfc")
        write_columnar(frame, path)
        dtypes = ColumnarSource(path).dtypes()
        assert dtypes["i"] == "int64"
        assert dtypes["b"] == "bool"
        assert dtypes["t"] == "datetime64[ns]"
        assert dtypes["s"] == "object"

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "not.lfc")
        with open(path, "wb") as f:
            f.write(b"definitely not a columnar file at all........")
        with pytest.raises(ValueError, match="bad magic"):
            read_columnar_footer(path)

    def test_footer_cache_invalidates_on_rewrite(self):
        url = "memory://lake/v.lfc"
        write_columnar(DataFrame({"a": np.arange(10)}), url)
        assert read_columnar_footer(url)["n_rows"] == 10
        write_columnar(DataFrame({"a": np.arange(25)}), url)
        assert read_columnar_footer(url)["n_rows"] == 25

    def test_footer_cache_costs_zero_reads_when_unchanged(self, tmp_path):
        url = "memory://lake/c.lfc"
        write_columnar(DataFrame({"a": np.arange(10)}), url)
        read_columnar_footer(url)
        before = memory_store().range_reads
        read_columnar_footer(url)
        assert memory_store().range_reads == before


class TestChunkSkipping:
    def _sorted_file(self, rows=400, groups=4) -> str:
        url = "memory://lake/sorted.lfc"
        write_columnar(
            DataFrame({
                "k": np.arange(rows, dtype=np.int64),
                "v": np.arange(rows, dtype=np.float64) * 2.0,
                "s": np.array([f"s{i % 7}" for i in range(rows)],
                              dtype=object),
            }),
            url, row_group_rows=rows // groups,
        )
        return url

    def test_proven_empty_chunk_reads_zero_ranges(self):
        url = self._sorted_file()
        source = ColumnarSource(url)
        parts = source.partitions()
        predicate = Predicate([{"column": "k", "op": ">=", "value": 300}])
        before = memory_store().range_reads
        empty = source.read_partition(parts[0], columns=["k"],
                                      predicate=predicate)
        assert len(empty) == 0
        assert memory_store().range_reads == before  # zero fetches
        assert empty.column("k").to_array().dtype.kind == "i"

    def test_row_group_stats_drive_may_match(self):
        source = ColumnarSource(self._sorted_file())
        parts = source.partitions()
        predicate = Predicate([{"column": "k", "op": "between",
                                "low": 150, "high": 160}])
        kept = [p.index for p in parts if predicate.may_match(p)]
        assert kept == [1]  # rows 100..199 only

    def test_scan_reads_only_projected_columns(self):
        url = self._sorted_file()
        footer = read_columnar_footer(ColumnarSource(url).path)
        total_bytes = memory_store().stat(url).size
        with Session(backend="pandas") as session:
            lf = lfp.scan_columnar(url)
            out = lf[lf["k"] >= 300][["k"]].collect()
            run_bytes = session.last_execution_stats.to_dict()["bytes_read"]
        assert out.column("k").to_array().tolist() == list(range(300, 400))
        # one int64 chunk of one row group out of a 3-column 4-group file
        assert run_bytes <= total_bytes * 0.25
        assert footer["n_rows"] == 400

    def test_prefetch_ranges_exclude_pruned_groups(self):
        source = ColumnarSource(self._sorted_file())
        predicate = Predicate([{"column": "k", "op": "<", "value": 100}])
        ranges = source.prefetch_ranges(columns=["k", "v"],
                                        predicate=predicate)
        footer = source.footer()
        group0 = footer["row_groups"][0]["chunks"]
        expected = {
            (group0[c]["offset"], group0[c]["offset"] + group0[c]["length"])
            for c in ("k", "v")
        }
        assert {(s, e) for _, s, e in ranges} == expected


class TestScanEquivalence:
    @pytest.mark.parametrize("strategy", ["serial", "threaded", "fused"])
    def test_columnar_matches_csv(self, tmp_path, strategy):
        frame = _mixed_frame(90)
        csv_path = os.path.join(tmp_path, "t.csv")
        frame[["i", "f", "s"]].to_csv(csv_path)
        lfc_path = os.path.join(tmp_path, "t.lfc")
        write_columnar(frame[["i", "f", "s"]], lfc_path, row_group_rows=30)

        def pipeline(scan):
            return scan[scan["i"] > 40][["i", "s"]]

        with Session(backend="pandas",
                     options={"executor.strategy": strategy}):
            via_csv = pipeline(lfp.scan_csv(csv_path)).collect()
            via_lfc = pipeline(lfp.scan_columnar(lfc_path)).collect()
        assert _frames_equal(via_csv, via_lfc)

    def test_parse_dates_matches_csv(self, tmp_path):
        n = 40
        frame = DataFrame({
            "ts": np.array(
                [f"2024-06-{(i % 27) + 1:02d} 12:00:00" for i in range(n)],
                dtype=object,
            ),
            "v": np.arange(n),
        })
        csv_path = os.path.join(tmp_path, "t.csv")
        frame.to_csv(csv_path)
        lfc_path = os.path.join(tmp_path, "t.lfc")
        from repro.frame.io_csv import read_csv

        write_columnar(read_csv(csv_path), lfc_path)
        with Session(backend="pandas"):
            via_csv = lfp.scan_csv(csv_path, parse_dates=["ts"]).collect()
            via_lfc = lfp.scan_columnar(lfc_path, parse_dates=["ts"]).collect()
        assert _frames_equal(via_csv, via_lfc)
        assert via_lfc.column("ts").to_array().dtype.kind == "M"

    def test_all_groups_pruned_yields_typed_empty(self, tmp_path):
        path = os.path.join(tmp_path, "t.lfc")
        write_columnar(DataFrame({
            "a": np.arange(50, dtype=np.int64),
            "f": np.arange(50, dtype=np.float64),
        }), path, row_group_rows=25)
        with Session(backend="pandas") as session:
            lf = lfp.scan_columnar(path)
            got = lf[lf["a"] > 10_000][["a", "f"]].collect()
            stats = session.last_execution_stats
        assert len(got) == 0
        assert got.column("a").to_array().dtype.kind == "i"
        assert got.column("f").to_array().dtype.kind == "f"
        assert stats.partitions_read == 0
        assert stats.partitions_total == 2


class TestSchedulerPrefetch:
    def test_threaded_run_records_prefetch_hits(self):
        url = "memory://lake/p.lfc"
        write_columnar(DataFrame({
            "a": np.arange(600, dtype=np.int64),
            "s": np.array([f"v{i % 3}" for i in range(600)], dtype=object),
        }), url, row_group_rows=150)
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded"}) as session:
            lf = lfp.scan_columnar(url)
            out = lf[["a"]].collect()
            stats = session.last_execution_stats.to_dict()
        assert len(out) == 600
        assert stats["ranges_prefetched"] == 4   # one `a` chunk per group
        assert stats["prefetch_hits"] == 4
        assert range_cache().pending_count() == 0

    def test_serial_run_does_not_prefetch(self):
        url = "memory://lake/p2.lfc"
        write_columnar(DataFrame({"a": np.arange(100)}), url,
                       row_group_rows=50)
        with Session(backend="pandas",
                     options={"executor.strategy": "serial"}) as session:
            lfp.scan_columnar(url)[["a"]].collect()
            stats = session.last_execution_stats.to_dict()
        assert stats["ranges_prefetched"] == 0
        assert stats["bytes_read"] > 0

    def test_prefetch_disabled_by_option(self):
        url = "memory://lake/p3.lfc"
        write_columnar(DataFrame({"a": np.arange(100)}), url,
                       row_group_rows=50)
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded",
                              "io.prefetch": False}) as session:
            lfp.scan_columnar(url)[["a"]].collect()
            stats = session.last_execution_stats.to_dict()
        assert stats["ranges_prefetched"] == 0


class TestVariantsAndFingerprints:
    def test_sibling_variant_finds_lfc(self, tmp_path):
        csv_path = os.path.join(tmp_path, "d.csv")
        frame = DataFrame({"a": np.arange(10)})
        frame.to_csv(csv_path)
        assert sibling_variant(csv_path, "columnar") is None
        lfc = os.path.splitext(csv_path)[0] + ".lfc"
        write_columnar(frame, lfc)
        assert sibling_variant(csv_path, "columnar") == lfc

    def test_remote_mutation_flips_fingerprint(self):
        from repro.cache.fingerprint import fingerprint_node

        url = "memory://lake/fp.lfc"
        write_columnar(DataFrame({"a": np.arange(10)}), url)
        with Session(backend="pandas"):
            first = fingerprint_node(lfp.scan_columnar(url)._node)
        write_columnar(DataFrame({"a": np.arange(10)}), url)  # new version
        with Session(backend="pandas"):
            second = fingerprint_node(lfp.scan_columnar(url)._node)
        assert first != second

    def test_schema_inference_uses_footer_dtypes(self, tmp_path):
        path = os.path.join(tmp_path, "s.lfc")
        write_columnar(DataFrame({
            "n": np.arange(6, dtype=np.int64),
            "label": np.array(list("abcdef"), dtype=object),
        }), path)
        with Session(backend="pandas"):
            lf = lfp.scan_columnar(path)
            explained = lf[["n"]].explain()
        assert "scan" in explained  # plan built with schema resolved
        assert lf.columns == ["n", "label"]
