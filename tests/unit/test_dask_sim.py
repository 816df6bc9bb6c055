"""Unit tests for the Dask simulator: lazy partitioned execution."""

import numpy as np
import pytest

from repro.backends import BackendUnsupported, DaskBackend
from repro.backends.dask_sim.frame import DaskFrame
from repro.frame import DataFrame, read_csv
from repro.memory import memory_manager


@pytest.fixture
def backend():
    b = DaskBackend(partition_bytes=2_000)
    yield b
    b.store.clear()


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
    def test_read_is_partitioned_and_lazy(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        assert isinstance(frame, DaskFrame)
        assert frame.npartitions > 1
        assert frame.expr.kind == "scan"

    def test_compute_assembles_all_rows(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        assert len(frame.compute()) == 500

    def test_len_counts_without_full_concat(self, backend, wide_csv):
        assert len(backend.read_csv(path=wide_csv)) == 500

    def test_usecols_pushed_into_partitions(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv, usecols=["k", "v"])
        out = frame.compute()
        assert out.columns == ["k", "v"]

    def test_index_col_emulated_with_set_index(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv, index_col="pad")
        assert "pad" not in frame.columns

    def test_head_reads_leading_partitions_only(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        head = frame.head(5)
        assert isinstance(head, DataFrame)
        assert len(head) == 5


class TestBlockwise:
    def test_filter_matches_eager(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy[lazy["v"] > 50.0].compute()
        eager = read_csv(wide_csv)
        expected = eager[eager["v"] > 50.0]
        assert len(out) == len(expected)
        assert sorted(out["v"].to_list()) == sorted(expected["v"].to_list())

    def test_with_column(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        lazy = lazy.with_column("double", lazy["v"] * 2)
        out = lazy.compute()
        assert np.allclose(out["double"].values, out["v"].values * 2)

    def test_setitem_mutates_wrapper(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        lazy["flag"] = lazy["v"] > 10
        assert "flag" in lazy.columns

    def test_str_accessor(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy["g"].str.upper().compute()
        assert out.values[0].startswith("G")

    def test_series_methods(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        assert lazy["k"].isin([1, 2]).compute().values.dtype == bool
        assert lazy["v"].between(10, 20).compute().values.dtype == bool
        assert (~(lazy["v"] > 50)).compute().values.dtype == bool

    def test_dropna_fillna(self, backend, make_csv):
        path = make_csv({"a": [1.0, np.nan, 3.0] * 30}, "na.csv")
        b = DaskBackend(partition_bytes=200)
        lazy = b.read_csv(path=path)
        assert len(lazy.dropna().compute()) == 60
        filled = lazy.fillna(0.0).compute()
        assert not np.isnan(filled["a"].values).any()
        b.store.clear()


class TestAggregations:
    def test_groupby_sum_matches_eager(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.groupby("g")["v"].sum()
        eager = read_csv(wide_csv).groupby("g")["v"].sum()
        got = dict(zip(out.index.to_array(), np.round(out.values, 6)))
        want = dict(zip(eager.index.to_array(), np.round(eager.values, 6)))
        assert got == want

    def test_groupby_mean_decomposes(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.groupby("g")["v"].mean()
        eager = read_csv(wide_csv).groupby("g")["v"].mean()
        assert np.allclose(np.sort(out.values), np.sort(eager.values))

    def test_groupby_size(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).groupby("g").size()
        assert out.values.sum() == 500

    def test_groupby_agg_dict(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).groupby("g").agg(
            {"v": "max", "k": "min"}
        )
        assert set(out.columns) == {"v", "k"}

    def test_scalar_reductions(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        eager = read_csv(wide_csv)
        assert float(lazy["v"].sum().compute()) == pytest.approx(eager["v"].sum())
        assert float(lazy["v"].mean().compute()) == pytest.approx(eager["v"].mean())
        assert float(lazy["v"].min().compute()) == pytest.approx(eager["v"].min())
        assert float(lazy["v"].max().compute()) == pytest.approx(eager["v"].max())
        assert int(lazy["v"].count().compute()) == 500

    def test_nunique_and_unique(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        assert lazy["g"].nunique() == 7
        assert len(lazy["g"].unique()) == 7

    def test_value_counts(self, backend, wide_csv):
        counts = backend.read_csv(path=wide_csv)["g"].value_counts()
        assert counts.values.sum() == 500

    def test_drop_duplicates_tree(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).drop_duplicates(subset=["g"])
        assert len(out.compute()) == 7

    def test_nlargest_tree(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).nlargest(3, "v").compute()
        eager = read_csv(wide_csv).nlargest(3, "v")
        assert sorted(out["v"].to_list()) == sorted(eager["v"].to_list())


class TestMerges:
    def test_broadcast_merge(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        dim = DataFrame({"k": list(range(20)), "label": [f"L{i}" for i in range(20)]})
        out = lazy.merge(dim, on="k").compute()
        assert len(out) == 500
        assert "label" in out.columns

    def test_shuffle_merge_matches_eager(self, backend, make_csv):
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
        b = DaskBackend(partition_bytes=500)
        left = b.read_csv(path=left_path)
        right = b.read_csv(path=right_path)
        assert left.npartitions > 1 and right.npartitions > 1
        out = left.merge(right, on="k").compute()
        expected = read_csv(left_path).merge(read_csv(right_path), on="k")
        assert len(out) > 0
        assert out.columns == expected.columns
        for name in expected.columns:
            assert out[name].dtype == expected[name].dtype
            assert out[name].to_list() == expected[name].to_list()
        b.store.clear()

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

    def test_merge_tracks_columns(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
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
        lazy = backend.read_csv(path=wide_csv)
        one = backend.adopt_cached(read_csv(wide_csv)["v"])
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

    def test_spill_directory_made_on_first_spill_and_removed(
        self, make_csv, tmp_path
    ):
        import os

        from repro.core.session import Session

        path = make_csv({"s": [f"text-{i:07d}-xxxxxxxx" for i in range(2000)]})
        spill_dir = str(tmp_path / "spill")
        with Session(backend="dask", options={
            "memory.spill_dir": spill_dir,
        }) as session:
            b = session.backend
            pinned = b.read_csv(path=path).persist()
            assert not os.path.exists(spill_dir)  # nothing spilled yet
            b.store.spill_all()
            (made,) = os.listdir(spill_dir)
            assert made.startswith("lafp-spill-")
            assert len(os.listdir(os.path.join(spill_dir, made))) == (
                pinned.npartitions)
            assert len(pinned.compute()) == 2000
            del pinned  # a handle's file goes with it
            assert os.listdir(os.path.join(spill_dir, made)) == []
            b.store.clear()
            assert os.listdir(spill_dir) == []


class TestUnsupportedOps:
    def test_sort_values_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).sort_values("v")

    def test_describe_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).describe()

    def test_iloc_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).iloc

    def test_apply_without_meta_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).apply(lambda r: r, axis=1)

    def test_apply_with_meta_works(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.apply(lambda row: row["k"] * 2, axis=1, meta="int64")
        assert len(out.compute()) == 500


class TestPersistAndSpill:
    def test_persist_materializes(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        pinned = lazy.persist()
        assert pinned.expr.kind == "materialized"
        assert len(pinned.compute()) == 500

    def test_spill_under_pressure_still_correct(self, make_csv):
        n = 2000
        path = make_csv(
            {
                "k": np.arange(n) % 10,
                "s": np.array([f"text-{i:07d}-xxxxxxxx" for i in range(n)], dtype=object),
            },
            "big.csv",
        )
        eager_total = read_csv(path).groupby("k")["k"].count()
        frame_bytes = read_csv(path).nbytes
        memory_manager.reset()
        memory_manager.budget = int(frame_bytes * 0.6)  # cannot hold it all
        try:
            b = DaskBackend(partition_bytes=2_000)
            lazy = b.read_csv(path=path)
            pinned = lazy.persist()  # must spill to fit
            out = pinned.groupby("k")["k"].count()
            assert b.store.spill_count > 0
            assert dict(zip(out.index.to_array(), out.values)) == dict(
                zip(eager_total.index.to_array(), eager_total.values)
            )
            b.store.clear()
        finally:
            memory_manager.budget = None

    def test_oom_when_materializing_too_much(self, make_csv):
        n = 3000
        path = make_csv(
            {"s": np.array([f"blob-{i:09d}-yyyyyyyyyyy" for i in range(n)], dtype=object)},
            "huge.csv",
        )
        frame_bytes = read_csv(path).nbytes
        memory_manager.reset()
        memory_manager.budget = int(frame_bytes * 0.5)
        try:
            b = DaskBackend(partition_bytes=2_000)
            lazy = b.read_csv(path=path)
            with pytest.raises(MemoryError):
                lazy.compute()  # full materialization cannot fit
            b.store.clear()
        finally:
            memory_manager.budget = None


class TestPinnedPartitionsSurviveMaterialize:
    """``dso`` x ``lafp_dask``: two roots share a pinned multi-partition
    frame; one materializes it (``sort_values`` falls back to pandas),
    the other groups it afterwards.  The materializing concat consumes
    its inputs, which emptied the pinned partitions (``KeyError:
    ['service']``) whenever there were at least two of them."""

    def test_compute_leaves_pinned_partitions_intact(self, backend, wide_csv):
        pinned = backend.read_csv(path=wide_csv).persist()
        assert pinned.expr.npartitions >= 2
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
