"""Unit tests for CSV IO, the .str/.dt accessors, and the metastore."""

import csv
import json
import os
import time

import numpy as np
import pytest

from repro.frame import DataFrame, Series, read_csv, to_datetime
from repro.frame.io_csv import read_header, scan_partitions
from repro.metastore import MetaStore, compute_metadata


class TestReadCsv:
    def test_roundtrip_types(self, make_csv):
        path = make_csv({"i": [1, 2], "f": [1.5, 2.5], "s": ["a", "b"]})
        frame = read_csv(path)
        assert frame.dtypes["i"] == np.dtype("int64")
        assert frame.dtypes["f"] == np.dtype("float64")
        assert frame.dtypes["s"] == np.dtype(object)

    def test_usecols(self, make_csv):
        path = make_csv({"a": [1], "b": [2], "c": [3]})
        frame = read_csv(path, usecols=["c", "a"])
        assert frame.columns == ["a", "c"]  # file order preserved

    def test_usecols_unknown_rejected(self, make_csv):
        path = make_csv({"a": [1]})
        with pytest.raises(ValueError):
            read_csv(path, usecols=["zzz"])

    def test_dtype_override(self, make_csv):
        path = make_csv({"a": [1, 2]})
        frame = read_csv(path, dtype={"a": "float64"})
        assert frame.dtypes["a"] == np.dtype("float64")

    def test_dtype_category(self, make_csv):
        path = make_csv({"s": ["x", "y", "x"]})
        frame = read_csv(path, dtype={"s": "category"})
        assert frame.column("s").is_category

    def test_parse_dates(self, make_csv):
        path = make_csv({"t": ["2024-01-01 10:00:00", "2024-02-01 11:00:00"]})
        frame = read_csv(path, parse_dates=["t"])
        assert frame.dtypes["t"] == np.dtype("datetime64[ns]")

    def test_nrows(self, make_csv):
        path = make_csv({"a": list(range(100))})
        assert len(read_csv(path, nrows=7)) == 7

    def test_index_col(self, make_csv):
        path = make_csv({"k": ["p", "q"], "v": [1, 2]})
        frame = read_csv(path, index_col="k")
        assert frame.columns == ["v"]
        assert list(frame.index.to_array()) == ["p", "q"]

    def test_empty_values_become_nan(self, make_csv):
        path = make_csv({"a": [1.0, np.nan, 3.0]})
        frame = read_csv(path)
        assert np.isnan(frame["a"].values[1])

    def test_empty_string_becomes_none_for_objects(self, make_csv):
        path = make_csv({"s": ["x", None, "y"]})
        frame = read_csv(path)
        assert frame["s"].to_list() == ["x", None, "y"]

    def test_int_with_na_promotes_to_float(self, make_csv):
        path = make_csv({"a": ["1", "", "3"]})
        frame = read_csv(path)
        assert frame.dtypes["a"] == np.dtype("float64")

    def test_read_header(self, make_csv):
        path = make_csv({"a": [1], "b": [2]})
        assert read_header(path) == ["a", "b"]


class TestHeaderIsReadOnceAsUtf8:
    def test_non_ascii_header_under_the_c_locale(self, tmp_path):
        """Blocks decode as UTF-8 whatever the locale; so must the
        header (``open`` defaults to the locale's encoding)."""
        import subprocess
        import sys

        path = tmp_path / "h.csv"
        path.write_bytes("é,日本,c\n1,2,3\n".encode("utf-8"))
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": os.pathsep.join(sys.path),
            # a C locale that stays ASCII: no coercion, no UTF-8 mode
            "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        }
        script = (
            "import locale, sys\n"
            "from repro.frame.io_csv import read_csv, read_header\n"
            "assert locale.getpreferredencoding(False).upper() "
            "not in ('UTF-8', 'UTF8')\n"
            "header = read_header(sys.argv[1])\n"
            "frame = read_csv(sys.argv[1])\n"
            "assert frame.columns == header\n"
            "sys.stdout.buffer.write(repr(header).encode('ascii', "
            "'backslashreplace'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert done.stdout.decode("ascii") == (
            "['\\xe9', '\\u65e5\\u672c', 'c']")

    def test_a_partition_read_opens_the_file_once(self, make_csv, monkeypatch):
        import builtins

        from repro.io import CsvSource

        path = make_csv({"a": list(range(50)), "b": [f"s{i}" for i in range(50)]})
        source = CsvSource(path, partition_bytes=64)
        parts = source.partitions()
        assert len(parts) > 2
        source.schema()
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        frames = [source.read_partition(part) for part in parts]
        monkeypatch.undo()
        assert opened == [path] * len(parts)
        assert sum(len(f) for f in frames) == 50

    def test_a_given_header_is_used_as_is(self, make_csv):
        path = make_csv({"a": [1, 2], "b": [3, 4]})
        size = os.path.getsize(path)
        frame = read_csv(path, byte_range=(5, size), header=["x", "y"],
                         usecols=["y"])
        assert frame.columns == ["y"]
        assert frame["y"].to_list() == [3, 4]


class TestPartitionedRead:
    def test_partitions_cover_all_rows_exactly(self, make_csv):
        path = make_csv({"a": list(range(997))})
        ranges = scan_partitions(path, 7)
        total = 0
        seen = []
        for byte_range in ranges:
            part = read_csv(path, byte_range=byte_range)
            total += len(part)
            seen.extend(part["a"].to_list())
        assert total == 997
        assert sorted(seen) == list(range(997))

    def test_single_partition(self, make_csv):
        path = make_csv({"a": [1, 2, 3]})
        ranges = scan_partitions(path, 1)
        assert len(ranges) == 1
        assert len(read_csv(path, byte_range=ranges[0])) == 3

    def test_more_partitions_than_rows(self, make_csv):
        path = make_csv({"a": [1, 2]})
        ranges = scan_partitions(path, 50)
        total = sum(len(read_csv(path, byte_range=r)) for r in ranges)
        assert total == 2


class TestWriteCsv:
    def test_roundtrip_values(self, make_csv, tmp_path):
        frame = DataFrame({"a": [1, 2], "s": ["x", "y"]})
        out = os.path.join(tmp_path, "out.csv")
        frame.to_csv(out)
        again = read_csv(out)
        assert again["a"].to_list() == [1, 2]
        assert again["s"].to_list() == ["x", "y"]

    def test_na_written_as_empty(self, tmp_path):
        frame = DataFrame({"a": [1.0, np.nan]})
        out = os.path.join(tmp_path, "out.csv")
        frame.to_csv(out)
        text = open(out).read()
        # a lone empty field is quoted so the row is not an empty line
        assert text.splitlines()[2] in ("", '""')

    def test_datetime_roundtrip(self, tmp_path):
        frame = DataFrame(
            {"t": np.array(["2024-05-01T10:30:00"], dtype="datetime64[ns]")}
        )
        out = os.path.join(tmp_path, "t.csv")
        frame.to_csv(out)
        again = read_csv(out, parse_dates=["t"])
        assert again["t"].values[0] == np.datetime64("2024-05-01T10:30:00")


def _reference_cell(value) -> str:
    """The per-cell stringifier ``write_csv`` called before it went
    column-wise (kept as the golden reference)."""
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return ""
        return str(value.astype("datetime64[s]")).replace("T", " ")
    if isinstance(value, np.floating) and np.isnan(value):
        return ""
    return str(value)


def _reference_write_csv(frame, path, index=False):
    arrays = [frame.column(name).to_array() for name in frame.columns]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = frame.columns
        if index:
            header = ["index", *header]
        writer.writerow(header)
        labels = frame.index.to_array() if index else None
        for i in range(len(frame)):
            row = [_reference_cell(a[i]) for a in arrays]
            if index:
                row.insert(0, _reference_cell(labels[i]))
            writer.writerow(row)


def _reference_jsonable(value):
    if value is None:
        return None
    if isinstance(value, (np.floating, float)):
        return None if np.isnan(value) else float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return None
        return str(value.astype("datetime64[s]")).replace("T", " ")
    return str(value)


def _reference_write_jsonl(frame, path):
    arrays = [frame.column(name).to_array() for name in frame.columns]
    with open(path, "w") as f:
        for i in range(len(frame)):
            record = {
                name: _reference_jsonable(arr[i])
                for name, arr in zip(frame.columns, arrays)
            }
            f.write(json.dumps(record) + "\n")


class TestColumnWiseWritersKeepTheirBytes:
    """The writers stringify a column at a time; the files they write
    must be the ones the cell-at-a-time writers wrote, byte for byte."""

    @pytest.fixture
    def golden_frame(self):
        n = 48
        floats = np.linspace(-1e17, 1e17, n) / 3.0
        floats[::5] = np.nan
        floats[1:4] = [1e16, 1e-5, -0.0]
        floats[6:8] = [np.inf, -np.inf]
        stamps = np.datetime64("2024-01-01T10:00:00.123456789", "ns") \
            + np.arange(n) * np.timedelta64(86_400_000_000_123, "ns")
        stamps[::7] = np.datetime64("NaT")
        strings = np.array(
            [None if i % 6 == 0 else f'a,"{i}" é' if i % 4 == 0 else f"s{i}"
             for i in range(n)], dtype=object)
        mixed = np.array(
            [1, "x", None, 2.5, float("nan"), True, np.float32("nan"),
             np.int64(3)] * (n // 8), dtype=object)
        frame = DataFrame({
            "i": np.arange(n) * 10 ** 15 - 7,
            "f": floats,
            "b": np.arange(n) % 3 == 0,
            "s": strings,
            "t": stamps,
            "m": mixed,
        })
        frame = frame.with_column("c", frame.column("s").astype("category"))
        return frame

    @pytest.mark.parametrize("index", [False, True])
    def test_csv_bytes(self, golden_frame, tmp_path, index):
        from repro.frame.io_csv import write_csv

        for name, frame in (("full", golden_frame),
                            ("empty", golden_frame.head(0)),
                            ("lone", DataFrame({"s": [None, "", "x"]}))):
            new, old = tmp_path / f"{name}.new", tmp_path / f"{name}.old"
            write_csv(frame, str(new), index=index)
            _reference_write_csv(frame, str(old), index=index)
            assert new.read_bytes() == old.read_bytes()
            assert old.stat().st_size > 0

    def test_jsonl_bytes(self, golden_frame, tmp_path):
        from repro.io.jsonl import write_jsonl

        for name, frame in (("full", golden_frame),
                            ("empty", golden_frame.head(0))):
            new, old = tmp_path / f"{name}.new", tmp_path / f"{name}.old"
            write_jsonl(frame, str(new))
            _reference_write_jsonl(frame, str(old))
            assert new.read_bytes() == old.read_bytes()


class TestToDatetime:
    def test_series(self):
        out = to_datetime(Series(["2024-01-01", "2024-06-15"]))
        assert out.dtype == np.dtype("datetime64[ns]")

    def test_none_becomes_nat(self):
        out = to_datetime(Series(np.array(["2024-01-01", None], dtype=object)))
        assert np.isnat(out.values[1])


class TestStrAccessor:
    def test_lower_upper_title_strip(self):
        s = Series(["  Hello  ", "WORLD "])
        assert s.str.strip().to_list() == ["Hello", "WORLD"]
        assert s.str.lower().to_list() == ["  hello  ", "world "]
        assert Series(["ab"]).str.upper().to_list() == ["AB"]
        assert Series(["ab cd"]).str.title().to_list() == ["Ab Cd"]

    def test_len(self):
        assert Series(["ab", "c"]).str.len().to_list() == [2, 1]

    def test_contains(self):
        assert Series(["apple", "pear"]).str.contains("pp").to_list() == [True, False]

    def test_contains_case_insensitive(self):
        assert Series(["APPLE"]).str.contains("app", case=False).to_list() == [True]

    def test_startswith_endswith(self):
        s = Series(["apple", "grape"])
        assert s.str.startswith("a").to_list() == [True, False]
        assert s.str.endswith("e").to_list() == [True, True]

    def test_replace_slice_zfill(self):
        assert Series(["a-b"]).str.replace("-", "_").to_list() == ["a_b"]
        assert Series(["abcdef"]).str.slice(1, 3).to_list() == ["bc"]
        assert Series(["7"]).str.zfill(3).to_list() == ["007"]

    def test_split_get(self):
        s = Series(["a,b", "c,d"])
        assert s.str.split(",").str.get(1).to_list() == ["b", "d"]

    def test_cat(self):
        out = Series(["a"]).str.cat(Series(["b"]), sep="-")
        assert out.to_list() == ["a-b"]

    def test_none_propagates(self):
        s = Series(np.array(["a", None], dtype=object))
        assert s.str.upper().to_list() == ["A", None]

    def test_category_fast_path(self):
        s = Series(["x", "y", "x"]).astype("category")
        assert s.str.upper().to_list() == ["X", "Y", "X"]

    def test_non_string_rejected(self):
        with pytest.raises(AttributeError):
            Series([1, 2]).str


class TestDtAccessor:
    def s(self):
        return to_datetime(Series(["2024-03-15 13:45:30", "2023-12-31 23:59:59"]))

    def test_fields(self):
        s = self.s()
        assert s.dt.year.to_list() == [2024, 2023]
        assert s.dt.month.to_list() == [3, 12]
        assert s.dt.day.to_list() == [15, 31]
        assert s.dt.hour.to_list() == [13, 23]
        assert s.dt.minute.to_list() == [45, 59]
        assert s.dt.second.to_list() == [30, 59]

    def test_dayofweek_matches_python(self):
        import datetime

        s = self.s()
        expected = [
            datetime.date(2024, 3, 15).weekday(),
            datetime.date(2023, 12, 31).weekday(),
        ]
        assert s.dt.dayofweek.to_list() == expected

    def test_dayofyear(self):
        s = to_datetime(Series(["2024-01-01", "2024-02-01"]))
        assert s.dt.dayofyear.to_list() == [1, 32]

    def test_date_truncates(self):
        out = self.s().dt.date
        assert out.values[0] == np.datetime64("2024-03-15")

    def test_non_datetime_rejected(self):
        with pytest.raises(AttributeError):
            Series([1, 2]).dt


class TestMetastore:
    def test_compute_metadata_types(self, make_csv):
        path = make_csv(
            {"i": [1, 2, 3], "f": [1.0, 2.0, 3.0], "s": ["a", "b", "a"]}
        )
        meta = compute_metadata(path, sample_rows=None)
        assert meta.columns["i"].dtype == "int64"
        assert meta.columns["f"].dtype == "float64"
        assert meta.columns["s"].dtype == "object"
        assert meta.n_rows == 3

    def test_min_max(self, make_csv):
        path = make_csv({"x": [5, 1, 9]})
        meta = compute_metadata(path, sample_rows=None)
        assert meta.columns["x"].min_value == 1
        assert meta.columns["x"].max_value == 9

    def test_category_candidate(self, make_csv):
        path = make_csv({"s": ["a", "b"] * 50})
        meta = compute_metadata(path, sample_rows=None)
        assert meta.columns["s"].is_category_candidate()

    def test_high_cardinality_not_candidate(self, make_csv):
        path = make_csv({"s": [f"u{i}" for i in range(100)]})
        meta = compute_metadata(path, sample_rows=None)
        assert not meta.columns["s"].is_category_candidate()

    def test_dtype_hints_respect_read_only(self, make_csv):
        path = make_csv({"s": ["a", "b"] * 50, "x": [1, 2] * 50})
        meta = compute_metadata(path, sample_rows=None)
        hints = meta.dtype_hints(read_only_columns=["s", "x"])
        assert hints["s"] == "category"
        hints_mutated = meta.dtype_hints(read_only_columns=["x"])
        assert "s" not in hints_mutated

    def test_store_roundtrip(self, make_csv, tmp_path):
        path = make_csv({"a": [1, 2]})
        store = MetaStore(os.path.join(tmp_path, "ms"))
        put = store.compute_and_store(path)
        got = store.get(path)
        assert got is not None
        assert got.n_rows == put.n_rows

    def test_mtime_invalidation(self, make_csv, tmp_path):
        path = make_csv({"a": [1, 2]})
        store = MetaStore(os.path.join(tmp_path, "ms"))
        store.compute_and_store(path)
        time.sleep(0.01)
        with open(path, "a") as f:
            f.write("3\n")
        assert store.get(path) is None

    def test_get_or_compute(self, make_csv, tmp_path):
        path = make_csv({"a": [1]})
        store = MetaStore(os.path.join(tmp_path, "ms"))
        meta = store.get_or_compute(path)
        assert meta.n_rows == 1

    def test_estimated_bytes_subset_smaller(self, make_csv, tmp_path):
        path = make_csv({"a": [1] * 50, "s": ["xxxxxxxx"] * 50})
        meta = compute_metadata(path, sample_rows=None)
        assert meta.estimated_bytes(["a"]) < meta.estimated_bytes()

    def test_row_estimation_from_sample(self, make_csv):
        path = make_csv({"a": list(range(1000))})
        meta = compute_metadata(path, sample_rows=100)
        assert meta.sampled
        assert 800 <= meta.n_rows <= 1200
