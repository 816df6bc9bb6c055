"""The source layer: DataSource protocol, format table, pushdown folding,
partition pruning, and scan byte estimates.

The correctness contract under test everywhere: folding a projection or
predicate into a scan, and pruning partitions against statistics, must
never change a collected result -- only how many bytes were read.
"""

import os

import numpy as np
import pytest

import repro
import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame, concat
from repro.frame.column import Column
from repro.io import (
    FORMATS,
    ColumnarSource,
    CsvSource,
    DataSource,
    DatasetSource,
    JsonlSource,
    Partition,
    Predicate,
    write_dataset,
    write_jsonl,
)
from repro.io.api import sibling_variant
from repro.metastore import MetaStore

STRATEGIES = ["serial", "threaded", "fused"]


def _frames_equal(a, b) -> bool:
    if list(a.columns) != list(b.columns):
        return False
    return all(
        np.array_equal(
            a.column(c).to_array(), b.column(c).to_array()
        )
        for c in a.columns
    )


@pytest.fixture
def hive_root(tmp_path):
    """A 4-partition hive dataset: year=2020..2023, 6 rows each, with
    ``v`` strictly increasing across partitions (payload pruning can
    separate them)."""
    frame = DataFrame({
        "year": np.repeat([2020, 2021, 2022, 2023], 6),
        "v": np.arange(24),
        "tag": np.array([f"t{i % 3}" for i in range(24)], dtype=object),
    })
    root = os.path.join(tmp_path, "events_hive")
    write_dataset(frame, root, partition_on="year")
    return root


@pytest.fixture
def metastore(tmp_path):
    return MetaStore(os.path.join(tmp_path, "metastore"))


# ---------------------------------------------------------------------------
# The three built-in sources.
# ---------------------------------------------------------------------------


class TestBuiltinSources:
    def test_csv_scan_projection_and_predicate(self, make_csv):
        path = make_csv({"a": np.arange(10), "b": np.arange(10) * 2,
                         "c": np.arange(10) * 3})
        source = CsvSource(path)
        assert source.schema() == ["a", "b", "c"]
        predicate = Predicate([{"column": "b", "op": ">", "value": 10}])
        frames = list(source.scan(columns=["a"], predicate=predicate))
        merged = frames[0]
        # predicate read `b`, output keeps only the projection
        assert list(merged.columns) == ["a"]
        assert merged.column("a").to_array().tolist() == [6, 7, 8, 9]

    def test_jsonl_roundtrip_preserves_types(self, tmp_path):
        frame = DataFrame({
            "i": np.arange(5),
            "f": np.linspace(0.0, 1.0, 5),
            "s": np.array(["x", "y", "z", "x", "y"], dtype=object),
        })
        path = os.path.join(tmp_path, "t.jsonl")
        write_jsonl(frame, path)
        source = JsonlSource(path)
        assert source.schema() == ["i", "f", "s"]
        out = next(source.scan())
        assert out.column("i").to_array().dtype.kind == "i"
        assert out.column("f").to_array().dtype.kind == "f"
        assert _frames_equal(out, frame)

    def test_dataset_appends_hive_keys(self, hive_root):
        source = DatasetSource(hive_root)
        # key columns come after the leaf columns, one partition per leaf
        assert source.schema() == ["v", "tag", "year"]
        parts = source.partitions()
        assert len(parts) == 4
        assert [p.key_values["year"] for p in parts] == [2020, 2021, 2022, 2023]
        out = source.read_partition(parts[2], columns=["v", "year"])
        assert out.column("year").to_array().tolist() == [2022] * 6
        assert out.column("v").to_array().tolist() == list(range(12, 18))

    def test_a_key_only_read_keeps_the_leaf_rows(self, hive_root):
        """Reading only a hive key still reads the leaf's row count: the
        key column is as long as the leaf, not empty."""
        source = DatasetSource(hive_root)
        out = source.read_partition(source.partitions()[1], columns=["year"])
        assert out.column("year").to_array().tolist() == [2021] * 6
        with Session(backend="pandas"):
            lf = lfp.scan_dataset(hive_root)
            assert int(lf["year"].sum().collect()) == 6 * (2020 + 2021
                                                           + 2022 + 2023)

    def test_scan_partitions_subset_and_empty_frame(self, hive_root):
        source = DatasetSource(hive_root)
        frames = list(source.scan(partitions=[1, 3]))
        assert len(frames) == 2
        empty = source.empty_frame(["v", "year"])
        assert list(empty.columns) == ["v", "year"]
        assert len(empty) == 0
        # typed like a real read, not degraded to object columns
        assert empty.column("v").to_array().dtype.kind == "i"

    def test_eager_byte_range_read(self, make_csv):
        """The eager reader honors an explicit byte_range instead of
        silently reading the whole file."""
        from repro.frame import read_csv
        from repro.frame.io_csv import scan_partitions

        path = make_csv({"a": np.arange(200)})
        first, second = scan_partitions(path, 2)
        piece = read_csv(path, byte_range=second)
        values = piece.column("a").to_array()
        assert 0 < len(values) < 200
        assert values[-1] == 199 and values[0] > 0


# ---------------------------------------------------------------------------
# The protocol with a source of no file, and the format table.
# ---------------------------------------------------------------------------


class _ArangeSource(DataSource):
    """In-test source: two partitions of consecutive integers."""

    format_name = "arange"

    def schema(self):
        return ["n", "double"]

    def partitions(self):
        return [
            Partition(0, self.path, min_values={"n": 0}, max_values={"n": 4},
                      est_rows=5, est_bytes=80),
            Partition(1, self.path, min_values={"n": 5}, max_values={"n": 9},
                      est_rows=5, est_bytes=80),
        ]

    def read_partition(self, partition, columns=None, predicate=None):
        lo = partition.min_values["n"]
        hi = partition.max_values["n"] + 1
        n = np.arange(lo, hi)
        builders = {"n": lambda: Column(n), "double": lambda: Column(n * 2)}
        return self.assemble(len(n), builders, columns, predicate)


class TestRegistry:
    def test_custom_source_round_trip(self):
        """A source reads through the protocol alone: its partitions,
        each assembled from column builders, projected and filtered."""
        source = _ArangeSource("memory://test")
        out = concat(list(source.scan()))
        assert out.column("n").to_array().tolist() == list(range(10))
        assert out.column("double").to_array().tolist() == [
            2 * i for i in range(10)
        ]
        predicate = Predicate.from_arg([{"column": "n", "op": ">=",
                                         "value": 7}])
        (part,) = source.scan(["double"], predicate, partitions=[1])
        assert part.columns == ["double"]
        assert part.column("double").to_array().tolist() == [14, 16, 18]

    def test_builtin_formats_present(self):
        assert dict(FORMATS) == {
            "csv": CsvSource, "jsonl": JsonlSource,
            "dataset": DatasetSource, "columnar": ColumnarSource,
        }


# ---------------------------------------------------------------------------
# Predicate semantics.
# ---------------------------------------------------------------------------


class TestPredicate:
    def test_serialization_round_trip(self):
        conjuncts = [
            {"column": "x", "op": ">=", "value": 3},
            {"column": "s", "op": "isin", "values": ["a", "b"]},
        ]
        predicate = Predicate.from_arg(conjuncts)
        assert predicate.to_arg() == conjuncts
        assert predicate.columns() == {"x", "s"}
        assert Predicate.from_arg(None) is None
        assert Predicate.from_arg([]) is None

    def test_filter_applies_all_conjuncts(self):
        frame = DataFrame({"x": np.arange(10),
                           "s": np.array(list("ababababab"), dtype=object)})
        predicate = Predicate([
            {"column": "x", "op": ">", "value": 2},
            {"column": "s", "op": "==", "value": "a"},
        ])
        out = frame[predicate.mask(frame)]
        assert out.column("x").to_array().tolist() == [4, 6, 8]

    @pytest.mark.parametrize("conj,expected", [
        ({"column": "x", "op": ">", "value": 9}, False),
        ({"column": "x", "op": ">=", "value": 9}, True),
        ({"column": "x", "op": "<", "value": 2}, False),
        ({"column": "x", "op": "==", "value": 5}, True),
        ({"column": "x", "op": "==", "value": 20}, False),
        ({"column": "x", "op": "!=", "value": 5}, True),
        ({"column": "x", "op": "between", "low": 10, "high": 12}, False),
        ({"column": "x", "op": "between", "low": 8, "high": 12}, True),
        ({"column": "x", "op": "isin", "values": [0, 1]}, False),
        ({"column": "x", "op": "isin", "values": [3, 99]}, True),
        # missing statistics: never prune
        ({"column": "unknown", "op": ">", "value": 1e9}, True),
    ])
    def test_range_pruning_decisions(self, conj, expected):
        part = Partition(0, "p", min_values={"x": 2}, max_values={"x": 9})
        assert Predicate([conj]).may_match(part) is expected

    def test_hive_key_is_exact(self):
        part = Partition(0, "p", key_values={"year": 2022})
        assert Predicate([{"column": "year", "op": "==", "value": 2022}]
                         ).may_match(part)
        assert not Predicate([{"column": "year", "op": "==", "value": 2021}]
                             ).may_match(part)
        assert not Predicate([{"column": "year", "op": "<", "value": 2022}]
                             ).may_match(part)

    def test_single_value_partition_not_equal(self):
        # lo == hi == value is the only provable != prune
        part = Partition(0, "p", min_values={"x": 5}, max_values={"x": 5})
        assert not Predicate([{"column": "x", "op": "!=", "value": 5}]
                             ).may_match(part)

    def test_or_term_prunes_only_when_every_branch_fails(self):
        part = Partition(0, "p", min_values={"x": 10}, max_values={"x": 20})
        both_miss = Predicate([{
            "op": "or",
            "terms": [[{"column": "x", "op": "<", "value": 5}],
                      [{"column": "x", "op": ">", "value": 50}]],
        }])
        assert not both_miss.may_match(part)
        one_hits = Predicate([{
            "op": "or",
            "terms": [[{"column": "x", "op": "<", "value": 5}],
                      [{"column": "x", "op": ">=", "value": 15}]],
        }])
        assert one_hits.may_match(part)

    def test_not_term_prunes_via_all_match_proof(self):
        # every row has x in [10, 20], so ~(x >= 5) provably matches none
        part = Partition(0, "p", min_values={"x": 10}, max_values={"x": 20},
                         null_counts={"x": 0})
        proven_full = Predicate([{
            "op": "not",
            "term": [{"column": "x", "op": ">=", "value": 5}],
        }])
        assert not proven_full.may_match(part)
        undecidable = Predicate([{
            "op": "not",
            "term": [{"column": "x", "op": ">=", "value": 15}],
        }])
        assert undecidable.may_match(part)

    def test_not_all_match_proof_needs_zero_nulls(self):
        # NA rows fail ``x >= 5``, so they *survive* its negation: with a
        # recorded nonzero null_count the NOT prune must not fire.
        part = Partition(0, "p", min_values={"x": 10}, max_values={"x": 20},
                         null_counts={"x": 3})
        predicate = Predicate([{
            "op": "not",
            "term": [{"column": "x", "op": ">=", "value": 5}],
        }])
        assert predicate.may_match(part)

    def test_null_aware_not_equal_prune(self):
        conj = [{"column": "x", "op": "!=", "value": 5}]
        # NaN != 5 is True, so a chunk of all-5s with recorded nulls
        # still has matching rows; only null_count == 0 proves the prune.
        no_nulls = Partition(0, "p", min_values={"x": 5}, max_values={"x": 5},
                             null_counts={"x": 0})
        assert not Predicate(conj).may_match(no_nulls)
        with_nulls = Partition(0, "p", min_values={"x": 5},
                               max_values={"x": 5}, null_counts={"x": 2})
        assert Predicate(conj).may_match(with_nulls)
        # sources that never recorded null counts keep the legacy prune
        legacy = Partition(0, "p", min_values={"x": 5}, max_values={"x": 5})
        assert not Predicate(conj).may_match(legacy)

    def test_nested_or_with_hive_keys(self):
        part = Partition(0, "p", key_values={"year": 2022},
                         min_values={"v": 0}, max_values={"v": 9})
        predicate = Predicate([{
            "op": "or",
            "terms": [
                [{"column": "year", "op": "==", "value": 2021},
                 {"column": "v", "op": "<", "value": 100}],
                [{"column": "v", "op": ">", "value": 50}],
            ],
        }])
        assert not predicate.may_match(part)

    def test_or_filter_matches_proof_semantics(self):
        frame = DataFrame({"x": np.arange(10)})
        predicate = Predicate([{
            "op": "or",
            "terms": [[{"column": "x", "op": "<", "value": 2}],
                      [{"column": "x", "op": ">=", "value": 8}]],
        }])
        out = frame[predicate.mask(frame)]
        assert out.column("x").to_array().tolist() == [0, 1, 8, 9]
        negated = Predicate([{
            "op": "not",
            "term": [{"column": "x", "op": "<", "value": 7}],
        }])
        out = frame[negated.mask(frame)]
        assert out.column("x").to_array().tolist() == [7, 8, 9]


# ---------------------------------------------------------------------------
# Optimizer folding: pushdown terminates inside the scan node.
# ---------------------------------------------------------------------------


class TestPushdownFolding:
    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fold_equivalence(self, make_csv, backend, strategy):
        """Folded and unfolded plans must collect identical frames."""
        path = make_csv({"a": np.arange(40), "b": np.arange(40) % 7,
                         "pad": np.array([f"p{i}" for i in range(40)],
                                         dtype=object)})

        def pipeline():
            lf = lfp.scan_csv(path)
            return lf[(lf["a"] > 5) & (lf["b"] != 3)][["a", "b"]]

        with Session(backend=backend,
                     options={"executor.strategy": strategy}) as session:
            folded = pipeline().collect()
            with session.option_context(
                "optimizer.predicate_pushdown", False,
                "optimizer.projection_pushdown", False,
                "optimizer.partition_pruning", False,
            ):
                plain = pipeline().collect()
        assert _frames_equal(folded, plain)

    def test_fold_visible_in_plan(self, make_csv):
        path = make_csv({"a": np.arange(10), "b": np.arange(10)})
        with Session(backend="pandas"):
            lf = lfp.scan_csv(path)
            out = lf[lf["a"] > 3][["b"]]
            optimized = out.explain().split("== optimized plan ==")[1]
        assert "predicate=(a>3)" in optimized
        # columns is the OUTPUT projection; the source still reads `a`
        # physically to evaluate the folded mask, then drops it.
        assert "columns=['b']" in optimized
        assert "filter" not in optimized

    def test_or_mask_folds_into_scan(self, make_csv):
        """Disjunctions fold as nested ``or`` terms: the predicate moves
        into the scan and still produces the right answer."""
        path = make_csv({"a": np.arange(20)})
        with Session(backend="pandas"):
            lf = lfp.scan_csv(path)
            out = lf[(lf["a"] < 3) | (lf["a"] > 16)]
            optimized = out.explain().split("== optimized plan ==")[1]
            frame = out.collect()
        assert "filter" not in optimized
        assert "predicate" in optimized
        assert frame.column("a").to_array().tolist() == [0, 1, 2, 17, 18, 19]

    def test_negation_folds_into_scan(self, make_csv):
        path = make_csv({"a": np.arange(10)})
        with Session(backend="pandas"):
            lf = lfp.scan_csv(path)
            out = lf[~(lf["a"] < 7)]
            optimized = out.explain().split("== optimized plan ==")[1]
            frame = out.collect()
        assert "predicate" in optimized
        assert frame.column("a").to_array().tolist() == [7, 8, 9]

    def test_shared_scan_not_folded(self, make_csv):
        """A scan with a second (unfiltered) consumer must keep its
        filter in the graph -- folding would filter the other branch."""
        path = make_csv({"a": np.arange(12)})
        with Session(backend="pandas"):
            lf = lfp.scan_csv(path)
            total = lf["a"].sum()
            small = lf[lf["a"] < 3]["a"].sum()
            combined = total + small
            assert float(combined.collect()) == sum(range(12)) + 0 + 1 + 2

    def test_jsonl_scan_folds_too(self, tmp_path):
        frame = DataFrame({"x": np.arange(30), "y": np.arange(30) * 3})
        path = os.path.join(tmp_path, "t.jsonl")
        write_jsonl(frame, path)
        with Session(backend="pandas"):
            lf = lfp.scan_jsonl(path)
            out = lf[lf["x"] >= 25]
            optimized = out.explain().split("== optimized plan ==")[1]
            got = out.collect()
        assert "predicate=(x>=25)" in optimized
        assert got.column("y").to_array().tolist() == [75, 78, 81, 84, 87]


# ---------------------------------------------------------------------------
# Partition pruning.
# ---------------------------------------------------------------------------


class TestPartitionPruning:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_hive_key_pruning_equivalence(self, hive_root, strategy):
        """Pruned and unpruned scans collect identical frames on every
        strategy, and the pruned run reads fewer partitions."""
        def pipeline():
            lf = lfp.scan_dataset(hive_root)
            return lf[lf["year"] == 2022][["v", "year"]]

        with Session(backend="pandas",
                     options={"executor.strategy": strategy}) as session:
            pruned = pipeline().collect()
            stats = session.last_execution_stats
            assert stats.partitions_read == 1
            assert stats.partitions_total == 4
            with session.option_context("optimizer.partition_pruning", False):
                unpruned = pipeline().collect()
                full_stats = session.last_execution_stats
        assert _frames_equal(pruned, unpruned)
        assert full_stats.partitions_read == full_stats.partitions_total == 4
        assert pruned.column("v").to_array().tolist() == list(range(12, 18))

    def test_payload_pruning_needs_unsampled_stats(self, hive_root, metastore):
        """Payload-column (non-key) predicates prune only through exact
        per-leaf metastore stats; sampled stats must NOT prune."""
        source = DatasetSource(hive_root)
        for part in source.partitions():
            metastore.compute_and_store(part.path, sample_rows=None)

        with Session(backend="pandas") as session:
            session.metastore = metastore
            lf = lfp.scan_dataset(hive_root)
            out = lf[lf["v"] >= 18]  # only the year=2023 leaf can match
            got = out.collect()
            stats = session.last_execution_stats
        assert stats.partitions_read == 1
        assert stats.partitions_total == 4
        assert got.column("v").to_array().tolist() == list(range(18, 24))

    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    @pytest.mark.parametrize("strategy", ["serial", "threaded", "process"])
    def test_dataset_leaves_split_into_byte_range_partitions(
        self, hive_root, metastore, strategy, backend
    ):
        """Per-byte-range stats on hive leaves turn each leaf into
        several prunable pieces: a payload predicate then prunes at
        sub-file granularity, not just whole leaves.  The scan ships the
        kept pieces' byte ranges, so a pool worker -- which has no
        handle on a metastore injected into the parent's session --
        reads exactly those."""
        from repro.frame.io_csv import scan_partitions

        source = DatasetSource(hive_root)
        for leaf in source.leaves():
            ranges = [tuple(r) for r in scan_partitions(leaf["path"], 2)]
            metastore.compute_and_store(
                leaf["path"], sample_rows=None, partition_ranges=ranges
            )

        with Session(backend=backend,
                     options={"executor.strategy": strategy}) as session:
            session.metastore = metastore
            lf = lfp.scan_dataset(hive_root)
            pruned = lf[lf["v"] >= 15].collect()
            stats = session.last_execution_stats
        # 4 leaves x 2 ranges; v >= 15 spans the back half of year=2022
        # plus all of year=2023 -- 3 of 8 pieces, where whole-leaf
        # pruning could do no better than 2 of 4 leaves.
        assert stats.partitions_total == 8
        assert stats.partitions_read == 3
        assert pruned.column("v").to_array().tolist() == list(range(15, 24))
        # sub-file partitions still carry their hive keys
        assert pruned.column("year").to_array().tolist() == \
            [2022] * 3 + [2023] * 6

    def test_a_split_leaf_has_its_header_read_once(
        self, hive_root, metastore, monkeypatch
    ):
        from repro.frame.io_csv import scan_partitions
        from repro.io import dataset

        source = DatasetSource(hive_root, metastore=metastore)
        for leaf in source.leaves():
            ranges = [tuple(r) for r in scan_partitions(leaf["path"], 2)]
            metastore.compute_and_store(
                leaf["path"], sample_rows=None, partition_ranges=ranges
            )
        parts = source.partitions()
        assert len(parts) == 8
        reads = []
        real = dataset.read_header
        monkeypatch.setattr(
            dataset, "read_header",
            lambda path: reads.append(path) or real(path))
        rows = sum(len(source.read_partition(part)) for part in parts)
        assert rows == 24
        assert sorted(reads) == sorted(leaf["path"] for leaf in source.leaves())

    def test_csv_byte_range_pruning_via_partition_stats(
        self, make_csv, metastore
    ):
        """Per-byte-range PartitionStats (the metastore satellite) let a
        plain CSV scan prune chunks of a sorted file."""
        path = make_csv({"k": np.arange(400), "w": np.arange(400) * 2})
        probe = CsvSource(path, partition_bytes=512)
        ranges = [p.byte_range for p in probe.partitions()]
        assert len(ranges) > 3  # the file actually split
        metastore.compute_and_store(
            path, sample_rows=None, partition_ranges=ranges
        )

        with Session(backend="pandas") as session:
            session.metastore = metastore
            lf = lfp.scan_csv(path, partition_bytes=512)
            out = lf[lf["k"] < 50]
            got = out.collect()
            stats = session.last_execution_stats
        assert stats.partitions_total == len(ranges)
        assert 0 < stats.partitions_read < stats.partitions_total
        assert got.column("k").to_array().tolist() == list(range(50))

    def test_stale_ranges_never_misprune(self, make_csv, metastore):
        """Partition stats recorded over DIFFERENT byte ranges than the
        live scan derives must be ignored, not misapplied."""
        path = make_csv({"k": np.arange(400), "w": np.arange(400)})
        metastore.compute_and_store(
            path, sample_rows=None,
            partition_ranges=[(0, 100), (100, 300)],  # not the scan's split
        )
        with Session(backend="pandas") as session:
            session.metastore = metastore
            lf = lfp.scan_csv(path, partition_bytes=512)
            got = lf[lf["k"] < 50].collect()
            stats = session.last_execution_stats
        assert stats.partitions_read == stats.partitions_total  # no pruning
        assert got.column("k").to_array().tolist() == list(range(50))

    def test_all_partitions_pruned_yields_empty_frame(self, hive_root):
        with Session(backend="pandas") as session:
            lf = lfp.scan_dataset(hive_root)
            out = lf[lf["year"] == 1999][["v", "year"]]
            got = out.collect()
            stats = session.last_execution_stats
        assert stats.partitions_read == 0
        assert stats.partitions_total == 4
        assert list(got.columns) == ["v", "year"]
        assert len(got) == 0

    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    def test_all_pruned_scan_preserves_dtypes(self, hive_root, backend):
        """A fully pruned scan must yield the same (typed) empty frame
        the unpruned run would have filtered down to -- not object
        columns."""
        def pipeline():
            lf = lfp.scan_dataset(hive_root)
            return lf[lf["year"] == 1999][["v", "year"]]

        with Session(backend=backend) as session:
            pruned = pipeline().collect()
            with session.option_context(
                "optimizer.predicate_pushdown", False,
                "optimizer.partition_pruning", False,
            ):
                ablated = pipeline().collect()
        assert len(pruned) == len(ablated) == 0
        for column in ("v", "year"):
            assert (pruned.column(column).to_array().dtype
                    == ablated.column(column).to_array().dtype), column
        assert pruned.column("v").to_array().dtype.kind == "i"

    def test_pruned_dask_scan_under_memory_budget(self, tmp_path, metastore):
        """The Dask backend must not re-chunk a pruned scan: the kept
        partition indices were computed against the optimizer's
        chunking, and a memory budget used to shrink partition_bytes at
        execution time, making the indices select wrong byte ranges."""
        rows = 20_000
        frame = DataFrame({
            "k": np.arange(rows),
            "pad": np.array([f"row-{i:06d}-{'x' * 80}" for i in range(rows)],
                            dtype=object),
        })
        path = os.path.join(tmp_path, "big.jsonl")
        write_jsonl(frame, path)
        assert os.path.getsize(path) > (1 << 20)  # multiple 1MB chunks
        ranges = [p.byte_range for p in JsonlSource(path).partitions()]
        assert len(ranges) >= 2
        metastore.compute_and_store(
            path, sample_rows=None, fmt="jsonl", partition_ranges=ranges
        )
        cutoff = rows - 2000  # provably fails every range but the last
        with Session(backend="dask",
                     options={"memory.budget": 5 << 20}) as session:
            session.metastore = metastore
            lf = lfp.scan_jsonl(path)
            got = lf[lf["k"] >= cutoff][["k"]].collect()
            stats = session.last_execution_stats
        assert stats.partitions_read < stats.partitions_total
        assert got.column("k").to_array().tolist() == list(range(cutoff, rows))

    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    def test_dataset_scan_backend_equivalence(self, hive_root, backend):
        with Session(backend=backend):
            lf = lfp.scan_dataset(hive_root)
            out = lf[lf["year"] >= 2022]["v"].sum()
            assert float(out.collect()) == float(sum(range(12, 24)))


# ---------------------------------------------------------------------------
# Scan byte estimates feeding ExecutionStats / admission.
# ---------------------------------------------------------------------------


class TestScanEstimates:
    def test_stats_record_estimated_bytes(self, hive_root):
        with Session(backend="pandas") as session:
            lf = lfp.scan_dataset(hive_root)
            lf[lf["year"] == 2022]["v"].sum().collect()
            stats = session.last_execution_stats
        scan_stats = [s for s in stats.nodes if s.op == "scan"]
        assert scan_stats and scan_stats[0].bytes_estimated is not None
        assert stats.bytes_estimated > 0
        payload = stats.to_dict()
        assert payload["bytes_estimated"] == stats.bytes_estimated
        assert payload["partitions_read"] == 1

    def test_estimate_shrinks_with_pruning(self, hive_root):
        source = DatasetSource(hive_root)
        full = source.estimated_bytes()
        one = source.estimated_bytes(partitions=[0])
        assert full is not None and one is not None
        assert one < full

    def test_threaded_admission_with_estimates_completes(self, hive_root):
        """A tight budget with sized admission still finishes (throttle,
        not deadlock) and produces the right answer."""
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded",
                              "memory.budget": 1 << 30}) as session:
            lf = lfp.scan_dataset(hive_root)
            total = lf["v"].sum()
            assert float(total.collect()) == float(sum(range(24)))
            assert session.last_execution_stats.strategy == "threaded"


# ---------------------------------------------------------------------------
# Metastore per-partition statistics.
# ---------------------------------------------------------------------------


class TestPartitionStatsPersistence:
    def test_round_trip_on_disk(self, make_csv, tmp_path):
        path = make_csv({"k": np.arange(100), "s": np.array(
            [f"s{i}" for i in range(100)], dtype=object)})
        ranges = [p.byte_range
                  for p in CsvSource(path, partition_bytes=256).partitions()]
        store_dir = os.path.join(tmp_path, "ms")
        meta = MetaStore(store_dir).compute_and_store(
            path, sample_rows=None, partition_ranges=ranges
        )
        assert len(meta.partitions) == len(ranges)
        assert sum(p.n_rows for p in meta.partitions) == 100
        # k is ordered: partition minima must be strictly increasing
        mins = [p.min_values["k"] for p in meta.partitions]
        assert mins == sorted(mins)

        reread = MetaStore(store_dir).get(path)  # fresh instance, from disk
        assert reread is not None
        assert [p.to_dict() for p in reread.partitions] == [
            p.to_dict() for p in meta.partitions
        ]

    def test_jsonl_metadata(self, tmp_path):
        frame = DataFrame({"x": np.arange(50)})
        path = os.path.join(tmp_path, "t.jsonl")
        write_jsonl(frame, path)
        ranges = [p.byte_range for p in JsonlSource(path).partitions()]
        meta = MetaStore(os.path.join(tmp_path, "ms")).compute_and_store(
            path, sample_rows=None, fmt="jsonl", partition_ranges=ranges
        )
        assert meta.n_rows == 50
        assert meta.columns["x"].min_value == 0
        assert meta.columns["x"].max_value == 49
        assert sum(p.n_rows for p in meta.partitions) == 50


# ---------------------------------------------------------------------------
# Top-level API surface.
# ---------------------------------------------------------------------------


class TestTopLevelApi:
    def test_repro_exports_scan_api(self):
        assert repro.scan_csv is lfp.scan_csv
        assert repro.from_pandas is lfp.from_pandas

    def test_from_pandas(self):
        frame = DataFrame({"a": np.arange(5), "b": np.arange(5) * 2})
        with Session(backend="pandas"):
            lf = lfp.from_pandas(frame)
            assert lf.columns == ["a", "b"]
            out = lf[lf["a"] > 2].collect()
        assert out.column("b").to_array().tolist() == [6, 8]

    def test_from_pandas_on_dask(self):
        frame = DataFrame({"a": np.arange(6)})
        with Session(backend="dask"):
            total = lfp.from_pandas(frame)["a"].sum()
            assert float(total.collect()) == 15.0

    def test_read_csv_is_the_pandas_spelling_of_scan_csv(self, make_csv):
        """One leaf: both spellings build the same plan -- same explain
        text, raw and optimized, and the same fingerprint."""
        from repro.cache.fingerprint import fingerprint_node

        path = make_csv({"a": np.arange(20), "b": np.arange(20) * 5,
                         "c": np.arange(20) % 3})
        with Session(backend="pandas"):
            plans = []
            for read in (lfp.read_csv, lfp.scan_csv):
                lf = read(path, dtype={"b": "float64"})
                plans.append(lf[lf["a"] > 4]["b"].sum())
            read_plan, scan_plan = plans
            assert read_plan.node.inputs[0].op == scan_plan.node.inputs[0].op
            assert read_plan.explain() == scan_plan.explain()
            assert "predicate=(a>4)" in read_plan.explain()
            assert (fingerprint_node(read_plan.node)
                    == fingerprint_node(scan_plan.node))
            assert read_plan.collect() == scan_plan.collect()

    def test_shared_csv_leaf_is_read_once_on_dask(self, make_csv,
                                                  monkeypatch):
        """A leaf two consumers share is cut into per-partition scans
        both consumers read, so each partition is read once -- not once
        per consumer.  (Counted in this process: a serial run.)"""
        path = make_csv({"a": np.arange(400), "b": np.arange(400) % 9})
        reads = []
        original = CsvSource.read_partition

        def counting(self, partition, **kwargs):
            reads.append(partition.index)
            return original(self, partition, **kwargs)

        monkeypatch.setattr(CsvSource, "read_partition", counting)
        for read in (lfp.read_csv,
                     lambda p: lfp.scan_csv(p, partition_bytes=512)):
            del reads[:]
            with Session(backend="dask",
                         options={"executor.strategy": "serial"}):
                lf = read(path)
                both = lfp.concat([lf[lf["b"] > 4], lf[lf["b"] <= 4]])
                assert len(both.collect()) == 400
            assert reads and len(reads) == len(set(reads))

    def test_scan_csv_index_col(self, make_csv):
        path = make_csv({"a": np.arange(4), "b": np.arange(4) * 5})
        with Session(backend="pandas"):
            out = lfp.scan_csv(path, index_col="a").collect()
        assert list(out.columns) == ["b"]

    def test_sibling_variant_resolution(self, tmp_path):
        csv_path = os.path.join(tmp_path, "d.csv")
        DataFrame({"a": np.arange(3), "k": np.array(list("xyz"),
                                                    dtype=object)}).to_csv(csv_path)
        assert sibling_variant(csv_path, "jsonl") is None  # not created yet
        write_jsonl(DataFrame({"a": np.arange(3)}),
                    os.path.join(tmp_path, "d.jsonl"))
        assert sibling_variant(csv_path, "jsonl").endswith("d.jsonl")
        write_dataset(
            DataFrame({"a": np.arange(3),
                       "k": np.array(list("xyz"), dtype=object)}),
            os.path.join(tmp_path, "d_hive"), partition_on="k",
        )
        assert sibling_variant(csv_path, "dataset").endswith("d_hive")
        assert sibling_variant("not_a_csv.parquet", "jsonl") is None

    def test_source_format_reroutes_read_csv(self, tmp_path):
        """workload.source_format makes pandas-verbatim read_csv scan the
        sibling dataset variant -- with pruning active."""
        frame = DataFrame({
            "g": np.repeat(np.array(["a", "b", "c"], dtype=object), 5),
            "x": np.arange(15),
        })
        csv_path = os.path.join(tmp_path, "t.csv")
        frame.to_csv(csv_path)
        write_dataset(frame, os.path.join(tmp_path, "t_hive"),
                      partition_on="g")
        with Session(backend="pandas") as session:
            session.set_option("workload.source_format", "dataset")
            lf = lfp.read_csv(csv_path)
            out = lf[lf["g"] == "b"]["x"].sum()
            assert float(out.collect()) == float(sum(range(5, 10)))
            stats = session.last_execution_stats
        assert stats.partitions_read == 1
        assert stats.partitions_total == 3

    def test_source_format_without_variant_falls_back(self, make_csv):
        path = make_csv({"a": np.arange(4)})
        with Session(backend="pandas") as session:
            session.set_option("workload.source_format", "jsonl")
            out = lfp.read_csv(path).collect()  # no sibling: plain CSV
        assert out.column("a").to_array().tolist() == [0, 1, 2, 3]


class TestOneScanContract:
    def test_invariant_tool_rejects_a_filter_after_the_read(self):
        import ast
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_invariants.py")
        spec = importlib.util.spec_from_file_location("check_invariants",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for whole in (
            "frame = frame[predicate.mask(frame)]",
            "keep = predicate.mask(frame)",
            "return piece.filter(mask)",
            "return self._finish(frame, columns, predicate)",
            "def _finish(self, frame, columns, predicate):\n    return frame",
        ):
            for module in ("io/csv_source.py", "io/jsonl.py",
                           "io/dataset.py", "io/source.py"):
                assert list(tool.check_one_scan_contract(
                    ast.parse(whole), module)), (whole, module)
        # the assembly step, and code outside the source layer
        assembly = ("class DataSource:\n"
                    "    def assemble(self, n, builders, columns, p):\n"
                    "        mask = p.mask(frame)\n"
                    "        return column.filter(mask)\n")
        assert not list(tool.check_one_scan_contract(
            ast.parse(assembly), "io/source.py"))
        assert list(tool.check_one_scan_contract(
            ast.parse(assembly), "io/columnar.py"))
        assert not list(tool.check_one_scan_contract(
            ast.parse("frame = frame[predicate.mask(frame)]"),
            "backends/base.py"))
        assert tool.run() == []
