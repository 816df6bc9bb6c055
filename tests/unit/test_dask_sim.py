"""Unit tests for the Dask simulator: the task graph cut per partition.

Baseline Dask mode's collections are lists of per-partition nodes, and a
LaFP plan on the Dask engine is cut into the same nodes
(``repro.core.optimizer.partitions``); both run on the one scheduler.
"""

import numpy as np
import pytest

from repro.backends import BackendUnsupported, DaskBackend
from repro.backends.dask_sim.frame import DaskFrame, DaskScalar, from_pandas
from repro.core.session import Session
from repro.frame import DataFrame, read_csv
from repro.workloads import dask_compat, pandas_compat


def read(path, partition_bytes=2_000, **kwargs):
    """Baseline Dask mode's read, in pieces of ``partition_bytes``."""
    return dask_compat.read_csv(path, partition_bytes=partition_bytes,
                                **kwargs)


@pytest.fixture
def backend():
    return DaskBackend()


@pytest.fixture
def wide_csv(make_csv):
    n = 500
    rng = np.random.default_rng(3)
    return make_csv(
        {
            "k": rng.integers(0, 20, n),
            "v": np.round(rng.random(n) * 100, 3),
            "g": np.array([f"g{i % 7}" for i in range(n)], dtype=object),
            "pad": np.array([f"pad-{i:05d}" for i in range(n)], dtype=object),
        },
        "wide.csv",
    )


class TestLazyReads:
    def test_read_is_partitioned_and_lazy(self, wide_csv):
        frame = read(wide_csv)
        assert isinstance(frame, DaskFrame)
        assert frame.npartitions > 1
        # one scan per partition, each carrying its byte range
        assert all(part.op == "scan" for part in frame.parts)
        assert not any(part.computed for part in frame.parts)
        ranges = [part.args["partitions"][0].byte_range
                  for part in frame.parts]
        assert ranges == sorted(ranges) and len(set(ranges)) == len(ranges)

    def test_compute_assembles_all_rows(self, wide_csv):
        frame = read(wide_csv)
        assert len(frame.compute()) == 500

    def test_len_counts_without_full_concat(self, wide_csv):
        assert len(read(wide_csv)) == 500

    def test_usecols_pushed_into_partitions(self, wide_csv):
        frame = read(wide_csv, usecols=["k", "v"])
        out = frame.compute()
        assert out.columns == ["k", "v"]

    def test_index_col_emulated_with_set_index(self, wide_csv):
        frame = read(wide_csv, index_col="pad")
        assert "pad" not in frame.columns

    def test_head_reads_leading_partitions_only(self, wide_csv):
        frame = read(wide_csv)
        head = frame.head(5)
        assert isinstance(head, DataFrame)
        assert len(head) == 5


class TestBlockwise:
    def test_filter_matches_eager(self, wide_csv):
        lazy = read(wide_csv)
        out = lazy[lazy["v"] > 50.0].compute()
        eager = read_csv(wide_csv)
        expected = eager[eager["v"] > 50.0]
        assert len(out) == len(expected)
        assert sorted(out["v"].to_list()) == sorted(expected["v"].to_list())

    def test_with_column(self, wide_csv):
        lazy = read(wide_csv)
        lazy = lazy.with_column("double", lazy["v"] * 2)
        out = lazy.compute()
        assert np.allclose(out["double"].values, out["v"].values * 2)

    def test_setitem_mutates_wrapper(self, wide_csv):
        lazy = read(wide_csv)
        lazy["flag"] = lazy["v"] > 10
        assert "flag" in lazy.columns

    def test_str_accessor(self, wide_csv):
        lazy = read(wide_csv)
        out = lazy["g"].str.upper().compute()
        assert out.values[0].startswith("G")

    def test_series_methods(self, wide_csv):
        lazy = read(wide_csv)
        assert lazy["k"].isin([1, 2]).compute().values.dtype == bool
        assert lazy["v"].between(10, 20).compute().values.dtype == bool
        assert (~(lazy["v"] > 50)).compute().values.dtype == bool

    def test_dropna_fillna(self, make_csv):
        path = make_csv({"a": [1.0, np.nan, 3.0] * 30}, "na.csv")
        lazy = read(path, partition_bytes=200)
        assert len(lazy.dropna().compute()) == 60
        filled = lazy.fillna(0.0).compute()
        assert not np.isnan(filled["a"].values).any()


class TestAggregations:
    def test_groupby_sum_matches_eager(self, wide_csv):
        lazy = read(wide_csv)
        out = lazy.groupby("g")["v"].sum()
        eager = read_csv(wide_csv).groupby("g")["v"].sum()
        got = dict(zip(out.index.to_array(), np.round(out.values, 6)))
        want = dict(zip(eager.index.to_array(), np.round(eager.values, 6)))
        assert got == want

    def test_groupby_mean_decomposes(self, wide_csv):
        lazy = read(wide_csv)
        out = lazy.groupby("g")["v"].mean()
        eager = read_csv(wide_csv).groupby("g")["v"].mean()
        assert np.allclose(np.sort(out.values), np.sort(eager.values))

    def test_groupby_size(self, wide_csv):
        out = read(wide_csv).groupby("g").size()
        assert out.values.sum() == 500

    def test_groupby_agg_dict(self, wide_csv):
        out = read(wide_csv).groupby("g").agg(
            {"v": "max", "k": "min"}
        )
        assert set(out.columns) == {"v", "k"}

    def test_scalar_reductions(self, wide_csv):
        lazy = read(wide_csv)
        eager = read_csv(wide_csv)
        assert float(lazy["v"].sum().compute()) == pytest.approx(eager["v"].sum())
        assert float(lazy["v"].mean().compute()) == pytest.approx(eager["v"].mean())
        assert float(lazy["v"].min().compute()) == pytest.approx(eager["v"].min())
        assert float(lazy["v"].max().compute()) == pytest.approx(eager["v"].max())
        assert int(lazy["v"].count().compute()) == 500

    def test_scalar_arithmetic_stays_lazy(self, wide_csv):
        lazy = read(wide_csv)["v"]
        eager = read_csv(wide_csv)["v"]
        total = 1 - lazy.sum() / (lazy.count() * 2) + lazy.max()
        assert isinstance(total, DaskScalar)
        assert float(total) == pytest.approx(
            1 - eager.sum() / (eager.count() * 2) + eager.max())

    @pytest.mark.parametrize("engine", ["pandas", "modin", "dask"])
    def test_wide_fan_out_of_sums_matches_pandas(self, engine, wide_csv):
        """The benchmark's ``wide`` plan shape: scalar + scalar across
        a dozen reductions of one shared filter."""
        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        def wide(pd):
            df = pd.read_csv(wide_csv)
            df = df[df.k > -1]
            combined = (df.v + 0).sum()
            for k in range(1, 12):
                combined = combined + (df.v + k).sum()
            return combined

        expected = wide(pandas_compat)
        with Session(backend=engine):
            got = wide(lfp).compute()
        assert float(got) == pytest.approx(expected, rel=1e-12)

    def test_nunique_and_unique(self, wide_csv):
        lazy = read(wide_csv)
        assert lazy["g"].nunique() == 7
        assert len(lazy["g"].unique()) == 7

    def test_value_counts(self, wide_csv):
        counts = read(wide_csv)["g"].value_counts()
        assert counts.values.sum() == 500

    def test_drop_duplicates_tree(self, wide_csv):
        out = read(wide_csv).drop_duplicates(subset=["g"])
        assert len(out.compute()) == 7

    def test_nlargest_tree(self, wide_csv):
        out = read(wide_csv).nlargest(3, "v").compute()
        eager = read_csv(wide_csv).nlargest(3, "v")
        assert sorted(out["v"].to_list()) == sorted(eager["v"].to_list())


class TestMerges:
    def test_broadcast_merge(self, wide_csv):
        lazy = read(wide_csv)
        dim = DataFrame({"k": list(range(20)), "label": [f"L{i}" for i in range(20)]})
        out = lazy.merge(dim, on="k").compute()
        assert len(out) == 500
        assert "label" in out.columns

    def test_shuffle_merge_matches_eager(self, make_csv):
        n = 300
        rng = np.random.default_rng(5)
        left_path = make_csv(
            {"k": rng.integers(0, 50, n), "v": np.arange(n)}, "left.csv"
        )
        right_path = make_csv(
            {
                "k": np.tile(np.arange(50), 10),
                "w": np.arange(500) * 10,
                "pad": np.array([f"r-{i:06d}" for i in range(500)], dtype=object),
            },
            "right.csv",
        )
        left = read(left_path, partition_bytes=500)
        right = read(right_path, partition_bytes=500)
        assert left.npartitions > 1 and right.npartitions > 1
        out = left.merge(right, on="k").compute()
        expected = read_csv(left_path).merge(read_csv(right_path), on="k")
        assert len(out) > 0
        assert out.columns == expected.columns
        for name in expected.columns:
            assert out[name].dtype == expected[name].dtype
            assert out[name].to_list() == expected[name].to_list()

    def test_shuffle_join_spills_counts_and_cleans_up(self, make_csv, tmp_path):
        """A Dask shuffle join runs the shared bucket stores: under a
        tight budget they spill under ``memory.spill_dir`` and count it,
        and once the join is done no store is live and no file is left."""
        import os

        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session
        from repro.io.spill import live_store_count

        n = 4000
        left_path = make_csv({"k": np.arange(n) % 40, "v": np.arange(n),
                              "s": [f"s{i % 7}" for i in range(n)]}, "l.csv")
        right_path = make_csv({"k": list(range(1000, 1300)) + list(range(8)),
                               "r": np.arange(308)}, "r.csv")
        spill_dir = str(tmp_path / "spill")
        expected = read_csv(left_path).merge(
            read_csv(right_path), on="k", how="right")
        with Session(backend="dask", options={
            "memory.budget": 300_000, "memory.spill_dir": spill_dir,
        }) as session:
            left = lfp.scan_csv(left_path, partition_bytes=2048)
            right = lfp.scan_csv(right_path, partition_bytes=256)
            out = left.merge(right, on="k", how="right").collect()
            stats = session.last_execution_stats.to_dict()
        assert out.columns == expected.columns
        for name in expected.columns:
            np.testing.assert_array_equal(
                out[name].values, expected[name].values)
        assert stats["shuffle_partitions"] > 0
        assert stats["bytes_spilled"] > 0 and stats["spill_files"] > 0
        assert live_store_count() == 0
        assert os.listdir(spill_dir) == []

    def test_merge_tracks_columns(self, wide_csv):
        lazy = read(wide_csv)
        dim = DataFrame({"k": [1], "label": ["x"]})
        out = lazy.merge(dim, on="k")
        assert "label" in out.columns


class TestPartitionCountMismatch:
    """An operand cut into a different number of partitions than the
    frame (a held series, a fallen-back whole-column op) cannot pair
    rows by position: the node takes the pandas fallback."""

    @pytest.mark.parametrize("backend", ["pandas", "modin", "dask"])
    def test_held_and_whole_column_series_assign(self, backend, make_csv):
        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        path = make_csv({"a": np.arange(200) % 13, "b": np.arange(200)})
        with Session(backend=backend):
            df = lfp.scan_csv(path, partition_bytes=256)
            t = (df.a + df.b).persist()
            df["t"] = t
            df["m"] = df.a.cummax()
            out = df.collect()
        eager = read_csv(path)
        assert out["t"].to_list() == (eager["a"] + eager["b"]).to_list()
        assert out["m"].to_list() == eager["a"].cummax().to_list()

    def test_blockwise_over_different_cuts_is_unsupported(self, backend,
                                                          wide_csv):
        lazy = read(wide_csv)
        one = from_pandas(read_csv(wide_csv), backend, npartitions=1)["v"]
        assert lazy.npartitions > 1 and one.npartitions == 1
        with pytest.raises(BackendUnsupported):
            lazy.with_column("w", one)
        with pytest.raises(BackendUnsupported):
            lazy[one > 50.0]


class TestPartitionStoreLifetime:
    def test_collect_loop_leaves_no_tracked_bytes(self, make_csv):
        """Persisted partitions, ``from_pandas`` splits and adopted
        values die with the expressions holding them: six rounds of
        read, filter, persist, group-by and a ``from_pandas`` sum leave
        the dask session holding what the pandas session holds."""
        import gc

        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        path = make_csv({"k": np.arange(4000) % 7, "a": np.arange(4000),
                         "s": [f"s{i}" for i in range(4000)]})
        live = {}
        for name in ("pandas", "dask"):
            with Session(backend=name) as session:
                for _ in range(6):
                    df = lfp.read_csv(path)
                    hot = df[df.a > 3].persist()
                    hot.groupby("k")["a"].sum().collect()
                    lfp.DataFrame({"a": np.arange(5000)}).a.sum().collect()
                del df, hot
                gc.collect()
                live[name] = session.memory.live
        assert live["dask"] == live["pandas"]

    def test_spills_leave_no_directory_behind(self, make_csv, tmp_path):
        """A budgeted Dask run spills through the shuffle stores, under
        ``memory.spill_dir``, and leaves nothing there: no store's file
        and no ``lafp-spill-*`` directory of a partition store."""
        import os

        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session
        from repro.io.spill import live_store_count

        left_path, right_path = _join_tables(make_csv)
        spill_dir = str(tmp_path / "spill")
        with Session(backend="dask", options={
            "memory.budget": 300_000, "memory.spill_dir": spill_dir,
        }) as session:
            left = lfp.scan_csv(left_path, partition_bytes=8192)
            left["w"] = left.v + 0  # not a bare scan: cut, not lowered
            right = lfp.scan_csv(right_path, partition_bytes=256)
            out = left.merge(right, on="k", how="right").collect()
            stats = session.last_execution_stats
        assert stats.spill_files > 0 and stats.bytes_spilled > 0
        assert len(out) == len(read_csv(left_path).merge(
            read_csv(right_path), on="k", how="right"))
        assert live_store_count() == 0
        assert os.listdir(spill_dir) == []


def _join_tables(make_csv):
    """A 3000-row table with a string payload and a 160-row one whose
    keys match a few of its rows: the join's inputs dwarf its output."""
    n = 3000
    left = make_csv({
        "k": np.arange(n) % 997, "v": np.arange(n),
        "s": np.array([f"text-{i:07d}-xxxxxxxx" for i in range(n)],
                      dtype=object),
    }, "left.csv")
    right = make_csv({"k": np.arange(900, 1060),
                      "r": [f"r{i:05d}" for i in range(160)]}, "right.csv")
    return left, right


class TestUnsupportedOps:
    def test_sort_values_raises(self, wide_csv):
        with pytest.raises(BackendUnsupported):
            read(wide_csv).sort_values("v")

    def test_describe_raises(self, wide_csv):
        with pytest.raises(BackendUnsupported):
            read(wide_csv).describe()

    def test_iloc_raises(self, wide_csv):
        with pytest.raises(BackendUnsupported):
            read(wide_csv).iloc

    def test_apply_without_meta_raises(self, wide_csv):
        with pytest.raises(BackendUnsupported):
            read(wide_csv).apply(lambda r: r, axis=1)

    def test_apply_with_meta_works(self, wide_csv):
        lazy = read(wide_csv)
        out = lazy.apply(lambda row: row["k"] * 2, axis=1, meta="int64")
        assert len(out.compute()) == 500


class TestPersistAndSpill:
    def test_persist_materializes(self, wide_csv):
        lazy = read(wide_csv)
        pinned = lazy.persist()
        assert all(part.computed and part.persist for part in pinned.parts)
        assert len(pinned.compute()) == 500

    def test_spill_under_pressure_still_correct(self, make_csv):
        """A join whose inputs do not fit the budget spills its shuffle
        stores and still matches the eager join."""
        left_path, right_path = _join_tables(make_csv)
        expected = read_csv(left_path).merge(read_csv(right_path), on="k")
        with Session(options={"memory.budget": 300_000}) as session:
            lazy = read(left_path, partition_bytes=8192)
            right = read(right_path, partition_bytes=256)
            assert lazy.npartitions > 1 and right.npartitions > 1
            out = lazy.merge(right, on="k").compute()
            stats = session.last_execution_stats
            assert stats.spill_files > 0 and stats.bytes_spilled > 0
        assert out.columns == expected.columns
        for name in out.columns:
            np.testing.assert_array_equal(out[name].values,
                                          expected[name].values)

    def test_oom_when_materializing_too_much(self, make_csv):
        n = 3000
        path = make_csv(
            {"s": np.array([f"blob-{i:09d}-yyyyyyyyyyy" for i in range(n)], dtype=object)},
            "huge.csv",
        )
        frame_bytes = read_csv(path).nbytes
        with Session(options={"memory.budget": int(frame_bytes * 0.5)}):
            lazy = read(path)
            with pytest.raises(MemoryError):
                lazy.compute()  # full materialization cannot fit


class TestPinnedPartitionsSurviveMaterialize:
    """``dso`` x ``lafp_dask``: two roots share a pinned multi-partition
    frame; one materializes it (``sort_values`` falls back to pandas),
    the other groups it afterwards.  The materializing concat consumes
    its inputs, which emptied the pinned partitions (``KeyError:
    ['service']``) whenever there were at least two of them."""

    def test_compute_leaves_pinned_partitions_intact(self, wide_csv):
        pinned = read(wide_csv).persist()
        assert pinned.npartitions >= 2
        first = pinned.compute()
        again = pinned.compute()
        assert again.columns == first.columns == ["k", "v", "g", "pad"]
        assert again["pad"].values.tolist() == first["pad"].values.tolist()
        out = pinned.groupby(["g"])["v"].mean()
        expected = read_csv(wide_csv).groupby(["g"])["v"].mean()
        assert out.index.to_array().tolist() == expected.index.to_array().tolist()
        np.testing.assert_allclose(out.values, expected.values)

    def test_materialized_then_grouped_through_a_session(self, wide_csv):
        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        eager = read_csv(wide_csv)
        expected = eager[eager["k"] >= 5].groupby(["g"])["v"].mean()
        with Session(backend="dask"):
            df = lfp.scan_csv(wide_csv, partition_bytes=2048)
            errors = df[df.k >= 5]
            worst = errors.sort_values("v", ascending=False).head(20)
            per_group = errors.groupby(["g"])["v"].mean()
            # pins the 5-partition ``errors`` and materializes it for the sort
            assert len(worst.compute(live_df=[errors])) == 20
            got = per_group.compute(live_df=[])
        assert got.index.to_array().tolist() == expected.index.to_array().tolist()
        np.testing.assert_allclose(got.values, expected.values)


class TestRecombineKeepsTheGatherLabels:
    """A recombined op (per piece, concat, once more) labels each row as
    the op over the gathered pieces does: by its position in the concat
    of the whole pieces, though filtered pieces carry gaps."""

    @pytest.mark.parametrize("op, args", [
        ("drop_duplicates", {"subset": ["k"]}),
        ("nlargest", {"n": 2, "columns": ["v"]}),
        ("nsmallest", {"n": 3, "columns": ["v"]}),
        ("head", {"n": 3}),
    ])
    def test_recombine_equals_gather_then_op(self, backend, op, args):
        from repro.backends.dask_sim.frame import _run
        from repro.core.optimizer.partitions import gather, recombine
        from repro.graph.node import Node

        frame = DataFrame({"k": [1, 0, 1, 2, 3, 1, 3, 4],
                           "v": [5.0, -1.0, 7.0, 9.0, 8.0, -2.0, 9.5, 6.0]})
        lazy = from_pandas(frame, backend, npartitions=2)
        pieces = lazy[lazy["v"] > 0].parts  # p0: 0, 2, 3; p1: 4, 6, 7
        want, got = _run(backend, [
            Node(op, [gather(pieces)], dict(args)),
            recombine(pieces, op, args),
        ])
        assert list(got.index.to_array()) == list(want.index.to_array())
        for name in want.columns:
            assert list(got[name].values) == list(want[name].values)
        if op == "drop_duplicates":
            assert list(got.index.to_array()) == [0, 2, 3, 5]


class TestPartitionCut:
    """A LaFP plan on the Dask engine is cut per partition and runs on
    every strategy, bit-identical to the eager engine."""

    @staticmethod
    def _queries(path):
        import repro.lazyfatpandas.pandas as lfp

        df = lfp.scan_csv(path, partition_bytes=2_000)
        df = df[df.v > 10.0]
        df["w"] = df.v * 2 + df.k
        dim = lfp.DataFrame({"k": list(range(20)),
                             "label": [f"L{i}" for i in range(20)]})
        joined = df.merge(dim, on="k")
        return [
            joined.groupby(["g"])["w"].sum(),
            joined.groupby(["label"]).agg({"v": "mean", "k": "max"}),
            df.w.sum(), df.w.mean(), df.drop_duplicates(subset=["g"]),
            df.nlargest(3, "v"), df.head(7),
            df.sort_values("v"),  # no partition-wise form: the fallback
        ]

    @pytest.mark.parametrize("strategy",
                             ["serial", "threaded", "fused", "process"])
    def test_every_strategy_matches_pandas(self, wide_csv, strategy):
        from repro.core.session import Session

        with Session(backend="pandas"):
            expected = [q.collect() for q in self._queries(wide_csv)]
        with Session(backend="dask", options={
            "executor.strategy": strategy, "executor.max_workers": 2,
        }) as session:
            got, tasks = [], 0
            for query in self._queries(wide_csv):
                got.append(query.collect())
                assert session.last_optimize_report["partitions_cut"] > 0
                stats = session.last_execution_stats
                assert stats.strategy == strategy
                tasks += stats.process_tasks
        if strategy == "process":
            assert tasks > 0  # per-partition chains pickled to workers
        for want, have in zip(expected, got):
            if isinstance(want, DataFrame):
                assert have.columns == want.columns
                pairs = [(have[c].values, want[c].values) for c in want.columns]
            elif hasattr(want, "values"):
                pairs = [(have.values, want.values)]
            else:
                pairs = [(np.asarray(have), np.asarray(want))]
            for h, w in pairs:
                if w.dtype.kind == "f":
                    # partial sums associate differently: last bits only
                    np.testing.assert_allclose(h, w, rtol=1e-12)
                else:
                    np.testing.assert_array_equal(h, w)

    def test_one_piece_plans_stay_uncut(self, wide_csv):
        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        with Session(backend="dask") as session:
            lfp.read_csv(wide_csv).groupby("g")["v"].sum().collect()
            assert session.last_optimize_report["partitions_cut"] == 0

    def test_pinned_frame_is_read_whole(self, wide_csv):
        """A frame kept live past a collect is held whole, so its plan is
        not cut: the run never holds its pieces and their concat at once,
        and peaks where the eager engine does."""
        import repro.lazyfatpandas.pandas as lfp
        from repro.core.session import Session

        peaks, values = {}, {}
        for name in ("pandas", "dask"):
            with Session(backend=name) as session:
                df = lfp.scan_csv(wide_csv, partition_bytes=2_000)
                df = df[df.v > 10.0]
                got = df.groupby("g")["v"].sum().compute(live_df=[df])
                peaks[name], values[name] = session.memory.peak, got.values
                if name == "dask":
                    report = session.last_optimize_report
                    assert report["persisted"] == 1
                    assert report["partitions_cut"] == 0
        assert peaks["dask"] == peaks["pandas"]
        np.testing.assert_array_equal(values["dask"], values["pandas"])

    def test_invariant_tool_rejects_a_second_executor(self):
        import ast
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_invariants.py")
        spec = importlib.util.spec_from_file_location("check_invariants",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for second in (
            "class Expr:\n    pass",
            "class Evaluator:\n    pass",
            "value = evaluator.eval_partition(expr, 0)",
            "def eval_partition(self, expr, i): ...",
            "from repro.backends.dask_sim.store import PartitionStore",
            "store = PartitionStore()",
            "marked = persist_shared_nodes(roots)",
            "if session.engine.is_lazy:\n    pass",
            "is_lazy = True",
        ):
            assert list(tool.check_one_partitioned_executor(
                ast.parse(second), "backends/dask_backend.py")), second
        # other classes and names pass
        assert not list(tool.check_one_partitioned_executor(
            ast.parse("class DaskFrame:\n    is_lazy_safe = 1"),
            "backends/dask_sim/frame.py"))
        assert tool.run() == []
