"""Partition-wise shuffle execution: lowering, spill, broadcast.

The correctness contract under test everywhere: lowering a merge or
groupby into per-partition pieces -- hash-partitioned into spillable
buckets, or merged against a broadcast right side -- must be invisible
in the collected result: bit-identical values, dtypes, and row order
versus the plain in-memory path, across backends and executor
strategies, whether or not budget pressure forced buckets to disk.

``optimizer.shuffle_threshold_bytes`` stands in for budget headroom so
the pass fires deterministically on small fixtures; the forced-spill
suite layers a real ``memory.budget`` on top so the spill machinery
itself is exercised.
"""

import gc
import os

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session

STRATEGIES = ["serial", "threaded", "fused"]
BACKENDS = ["pandas", "modin", "dask"]

#: forces lowering on the small fixtures (their disk estimates are a
#: few KB) while leaving room for the tiny right side to broadcast
THRESHOLD = 2000

AGG_FUNCS = ["sum", "mean", "count", "min", "max", "nunique", "std"]


def _write(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """1200 rows, 40 duplicate-heavy int keys, an int payload, and a
    7-value string column (exercises the heap-store payload path)."""
    rng = np.random.RandomState(0)
    return _write(
        tmp_path_factory.mktemp("shuffle") / "wide.csv", "k,v,s",
        [f"{rng.randint(0, 40)},{i},s{i % 7}" for i in range(1200)],
    )


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    """A right side small enough to broadcast: 10 rows, half-matching."""
    return _write(
        tmp_path_factory.mktemp("shuffle") / "tiny.csv", "k,w",
        [f"{k},{k * 10}" for k in range(0, 20, 2)],
    )


@pytest.fixture(scope="module")
def spill_left_csv(tmp_path_factory):
    """4000 rows (~300KB in memory): big enough that a 150KB budget
    cannot hold both shuffle stores resident."""
    rng = np.random.RandomState(0)
    return _write(
        tmp_path_factory.mktemp("shuffle") / "left.csv", "k,v,s",
        [f"{rng.randint(0, 40)},{i},s{i % 7}" for i in range(4000)],
    )


@pytest.fixture(scope="module")
def rightbig_csv(tmp_path_factory):
    """Too big to broadcast, low join selectivity: 300 non-matching
    keys plus 8 matching ones, so the join output stays well under the
    forced-spill budget."""
    rows = [f"{1000 + i},{i}" for i in range(300)]
    rows += [f"{i},{i * 10}" for i in range(8)]
    return _write(
        tmp_path_factory.mktemp("shuffle") / "rightbig.csv", "k,w", rows
    )


def _raise_boom(value):
    raise ValueError("boom")


def _equal(a, b) -> bool:
    """Bit-identical including dtypes, NaN-aware, order-sensitive."""
    if type(a).__name__ == "Series":
        if type(b).__name__ != "Series" or a.name != b.name:
            return False
        if not np.array_equal(a.index.to_array(), b.index.to_array()):
            return False
        return _columns_equal(a.column, b.column)
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    return all(_columns_equal(a.column(c), b.column(c)) for c in a.columns)


def _columns_equal(ca, cb) -> bool:
    av, bv = ca.to_array(), cb.to_array()
    if ca.values.dtype != cb.values.dtype:
        return False
    if av.dtype.kind == "f":
        return bool(((av == bv) | ((av != av) & (bv != bv))).all())
    eq = av == bv
    if av.dtype == object:
        # None keys compare elementwise; missing slots must align
        eq = eq | np.array(
            [x is None and y is None for x, y in zip(av, bv)]
        )
    return bool(np.asarray(eq).all())


def _run(pipeline, backend="pandas", strategy="serial", options=None):
    opts = {"executor.strategy": strategy}
    opts.update(options or {})
    with Session(backend=backend, options=opts) as session:
        out = pipeline().collect()
        report = dict(session.last_optimize_report)
        stats = session.last_execution_stats.to_dict()
    return out, report, stats


# ---------------------------------------------------------------------------
# Equivalence: lowered plans produce bit-identical results.
# ---------------------------------------------------------------------------


class TestMergeEquivalence:
    @pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_merge_grid(self, wide_csv, rightbig_csv, how, backend, strategy):
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how=how)

        base, report, _ = _run(pipeline)
        assert report["shuffle_lowered"] == 0
        out, report, stats = _run(
            pipeline, backend, strategy,
            {"optimizer.shuffle_threshold_bytes": 100},
        )
        assert report["shuffle_lowered"] == 1
        assert stats["shuffle_partitions"] > 0
        assert stats["broadcast_joins"] == 0
        assert _equal(base, out)

    def test_shuffle_disabled_leaves_plan_alone(self, wide_csv, rightbig_csv):
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, options={
            "optimizer.shuffle": False,
            "optimizer.shuffle_threshold_bytes": 100,
        })
        assert report["shuffle_lowered"] == 0
        assert stats["shuffle_partitions"] == 0
        assert _equal(base, out)

    def test_dask_cut_join_matches_the_lowered_one(self, wide_csv,
                                                   rightbig_csv):
        """A join the shuffle lowering cannot take (its inputs are not
        bare scans) is cut per partition on the Dask engine: one bucket
        shuffle over per-partition writes, the eager row order."""
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            left["w"] = left.v * 2
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="outer")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, backend="dask")
        assert report["shuffle_lowered"] == 0
        assert report["partitions_cut"] > 0
        assert stats["shuffle_partitions"] > 0
        assert _equal(base, out)


class TestGroupbyEquivalence:
    @pytest.mark.parametrize("func", AGG_FUNCS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_series_agg_strategies(self, wide_csv, func, strategy):
        def pipeline():
            df = lfp.scan_csv(wide_csv, partition_bytes=2048)
            return df.groupby("k")["v"].agg(func)

        base, report, _ = _run(pipeline)
        assert report["shuffle_lowered"] == 0
        out, report, stats = _run(pipeline, "pandas", strategy, {
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        })
        assert report["shuffle_lowered"] == 1
        if func in ("nunique", "std"):
            # holistic: must go through the bucketed shuffle
            assert stats["shuffle_partitions"] > 0
        else:
            # decomposable: pure partial aggregation, no shuffle store
            assert stats["shuffle_partitions"] == 0
        assert _equal(base, out)

    @pytest.mark.parametrize("func", AGG_FUNCS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_series_agg_backends(self, wide_csv, func, backend):
        def pipeline():
            df = lfp.scan_csv(wide_csv, partition_bytes=2048)
            return df.groupby("k")["v"].agg(func)

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, backend, "serial", {
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)

    @pytest.mark.parametrize("as_index", [True, False])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_agg_multi(self, wide_csv, as_index, strategy):
        def pipeline():
            df = lfp.scan_csv(wide_csv, partition_bytes=2048)
            grouped = df.groupby("k", as_index=as_index)
            return grouped.agg({"v": ["sum", "mean"], "s": "count"})

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, "pandas", strategy, {
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)


# ---------------------------------------------------------------------------
# Broadcast fast path.
# ---------------------------------------------------------------------------


class TestBroadcast:
    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_small_right_broadcasts(self, wide_csv, tiny_csv, how, strategy):
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(tiny_csv, partition_bytes=512)
            return left.merge(right, on="k", how=how)

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, "pandas", strategy, {
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        })
        assert report["shuffle_lowered"] == 1
        assert stats["broadcast_joins"] == 1
        assert stats["shuffle_partitions"] == 0
        assert stats["bytes_spilled"] == 0
        assert _equal(base, out)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_dask_merge_against_one_piece_counts_its_broadcast(
            self, wide_csv, tiny_csv, strategy):
        """The Dask engine's per-piece merges against a one-piece right
        side are a broadcast join, and are counted as one."""
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            left["w"] = left.v * 2
            right = lfp.scan_csv(tiny_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, "dask", strategy)
        assert report["partitions_cut"] > 0
        assert stats["broadcast_joins"] == 1
        assert stats["shuffle_partitions"] == 0
        assert _equal(base, out)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_failed_udf_after_a_broadcast_merge_releases_everything(
            self, spill_left_csv, tiny_csv, strategy):
        """Each left piece is merged against the broadcast right side on
        its own; a UDF failing after the merge unwinds the run with the
        pieces' results and the broadcast side dropped."""
        with Session(backend="pandas", options={
            "executor.strategy": strategy,
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        }) as session:
            left = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            right = lfp.scan_csv(tiny_csv, partition_bytes=512)
            merged = left.merge(right, on="k", how="inner")
            with pytest.raises(ValueError, match="boom"):
                merged["v"].map(_raise_boom).sum().collect()
            assert session.last_execution_stats.broadcast_joins == 1
            gc.collect()
            assert session.memory.live == 0

    def test_right_join_cannot_broadcast(self, wide_csv, tiny_csv):
        """A right/outer join must see unmatched right rows, which the
        partition-at-a-time broadcast cannot produce -- full shuffle."""
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(tiny_csv, partition_bytes=512)
            return left.merge(right, on="k", how="right")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        })
        assert report["shuffle_lowered"] == 1
        assert stats["broadcast_joins"] == 0
        assert stats["shuffle_partitions"] > 0
        assert _equal(base, out)


# ---------------------------------------------------------------------------
# Forced spill: real budget pressure pushes buckets to disk.
# ---------------------------------------------------------------------------


class TestForcedSpill:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_merge_spills_and_matches(self, tmp_path, spill_left_csv,
                                      rightbig_csv, backend, strategy):
        def pipeline():
            left = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")

        base, *_ = _run(pipeline)
        spill_dir = tmp_path / f"spill-{backend}-{strategy}"
        out, report, stats = _run(pipeline, backend, strategy, {
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
            "memory.spill_dir": str(spill_dir),
        })
        assert report["shuffle_lowered"] == 1
        assert stats["bytes_spilled"] > 0
        assert stats["shuffle_partitions"] > 0
        assert stats["broadcast_joins"] == 0
        assert _equal(base, out)
        # stores close with the session: no spill files may survive
        gc.collect()
        leftover = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(spill_dir)
            for name in names
        ]
        assert leftover == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_failed_run_leaves_no_spill_files(self, tmp_path,
                                                spill_left_csv,
                                                rightbig_csv, strategy):
        """A node failing after the shuffle spilled: the run's unwind
        drops the stores too, so their finalizers delete every spill
        file and the budget is whole again."""
        spill_dir = tmp_path / "spill"
        with Session(backend="pandas", options={
            "executor.strategy": strategy,
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
            "memory.spill_dir": str(spill_dir),
        }) as session:
            left = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            merged = left.merge(right, on="k", how="inner")
            with pytest.raises(ValueError, match="boom"):
                merged.apply(_raise_boom, axis=1).sum().collect()
            assert session.last_execution_stats.bytes_spilled > 0
            gc.collect()
            assert session.memory.live == 0
        gc.collect()
        leftover = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(spill_dir)
            for name in names
        ]
        assert leftover == []

    FORCED = {
        "memory.budget": 150_000,
        "optimizer.shuffle_threshold_bytes": 100,
    }

    @staticmethod
    def _forced_merge(spill_left_csv, rightbig_csv):
        def pipeline():
            left = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")
        return pipeline

    def test_spilled_bytes_deterministic(self, spill_left_csv, rightbig_csv):
        """Under a budget the threaded pool runs one task at a time in
        the static order, so the run's whole spill volume -- write and
        read phase -- is reproducible, and is ``serial``'s."""
        pipeline = self._forced_merge(spill_left_csv, rightbig_csv)
        first, _, stats_a = _run(pipeline, strategy="threaded",
                                 options=self.FORCED)
        second, _, stats_b = _run(pipeline, strategy="threaded",
                                  options=self.FORCED)
        serial, _, stats_s = _run(pipeline, options=self.FORCED)
        assert stats_a["bytes_spilled"] == stats_b["bytes_spilled"] > 0
        assert stats_a["bytes_spilled"] == stats_s["bytes_spilled"]
        assert stats_a["shuffle_partitions"] == stats_b["shuffle_partitions"]
        assert _equal(first, second) and _equal(first, serial)

    def test_whole_spill_volume_deterministic_one_node_at_a_time(
            self, spill_left_csv, rightbig_csv):
        """Under ``serial`` everything ``bytes_spilled`` counts -- write
        phase and read phase -- is reproducible."""
        pipeline = self._forced_merge(spill_left_csv, rightbig_csv)
        first, _, stats_a = _run(pipeline, options=self.FORCED)
        second, _, stats_b = _run(pipeline, options=self.FORCED)
        assert stats_a["bytes_spilled"] == stats_b["bytes_spilled"] > 0
        assert stats_a["spill_files"] == stats_b["spill_files"]
        assert _equal(first, second)

    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_session_keeps_no_dropped_result(self, spill_left_csv,
                                             rightbig_csv, backend, strategy):
        """A session charges its budget only for values the program can
        still reach: a result the program dropped is freed, so the
        same forced-spill merge collects again and again in one
        session, and nothing stays live once the program holds
        nothing."""
        pipeline = self._forced_merge(spill_left_csv, rightbig_csv)
        options = dict(self.FORCED, **{"executor.strategy": strategy})
        with Session(backend=backend, options=options) as session:
            for _ in range(3):
                pipeline().collect()
                assert session.last_execution_stats.bytes_spilled > 0
        gc.collect()
        assert session.memory.live == 0

    def test_groupby_holistic_under_budget(self, spill_left_csv):
        def pipeline():
            df = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            return df.groupby("k")["s"].agg("nunique")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, options={
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
        })
        assert report["shuffle_lowered"] == 1
        assert stats["shuffle_partitions"] > 0
        assert _equal(base, out)

    def test_groupby_partial_under_budget(self, spill_left_csv):
        def pipeline():
            df = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            return df.groupby("k")["v"].mean()

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, options={
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)


# ---------------------------------------------------------------------------
# Edge cases: duplicate keys, null keys, empty buckets.
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_duplicate_keys_cross_product(self, tmp_path):
        left = _write(tmp_path / "dl.csv", "k,v",
                      [f"{i % 3},{i}" for i in range(30)])
        right = _write(tmp_path / "dr.csv", "k,w",
                       [f"{i % 3},{i * 10}" for i in range(12)])

        def pipeline():
            lf = lfp.scan_csv(left, partition_bytes=64)
            rf = lfp.scan_csv(right, partition_bytes=64)
            return lf.merge(rf, on="k", how="inner")

        base, *_ = _run(pipeline)
        assert len(base) == 120  # 3 keys x 10 x 4
        out, report, _ = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": 10,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)

    @pytest.mark.parametrize("how", ["inner", "outer"])
    def test_null_float_keys(self, tmp_path, how):
        """Empty CSV fields parse to NaN; the shuffle must route every
        null to one bucket and reproduce in-memory null-join semantics."""
        left = _write(
            tmp_path / "nl.csv", "k,v",
            [f"{i % 4},{i}" if i % 5 else f",{i}" for i in range(40)],
        )
        right = _write(tmp_path / "nr.csv", "k,w",
                       ["0,100", ",200", "2,300", ",400"])

        def pipeline():
            lf = lfp.scan_csv(left, partition_bytes=64)
            rf = lfp.scan_csv(right, partition_bytes=32)
            return lf.merge(rf, on="k", how=how)

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": 10,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)

    def test_null_object_keys(self, tmp_path):
        left = _write(
            tmp_path / "ol.csv", "k,v",
            [f"s{i % 3},{i}" if i % 4 else f",{i}" for i in range(40)],
        )
        right = _write(tmp_path / "or.csv", "k,w",
                       ["s0,100", ",200", "s2,300"])

        def pipeline():
            lf = lfp.scan_csv(left, partition_bytes=64)
            rf = lfp.scan_csv(right, partition_bytes=32)
            return lf.merge(rf, on="k", how="inner")

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": 10,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)

    def test_null_keys_groupby(self, tmp_path):
        data = _write(
            tmp_path / "gn.csv", "k,v",
            [f"{i % 4},{i}" if i % 5 else f",{i}" for i in range(60)],
        )

        def pipeline():
            return lfp.scan_csv(
                data, partition_bytes=64
            ).groupby("k")["v"].agg("nunique")

        base, *_ = _run(pipeline)
        out, report, _ = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": 10,
        })
        assert report["shuffle_lowered"] == 1
        assert _equal(base, out)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_buckets(self, tmp_path, strategy):
        """More buckets than distinct keys: empty buckets must yield
        empty, correctly-typed pieces, not break the combine."""
        left = _write(tmp_path / "el.csv", "k,v",
                      [f"{i % 3},{i}" for i in range(24)])
        right = _write(tmp_path / "er.csv", "k,w",
                       [f"{k},{k * 10}" for k in range(3)])

        def pipeline():
            lf = lfp.scan_csv(left, partition_bytes=64)
            rf = lfp.scan_csv(right, partition_bytes=32)
            return lf.merge(rf, on="k", how="outer")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, strategy=strategy, options={
            "optimizer.shuffle_threshold_bytes": 10,
            "optimizer.shuffle_partitions": 16,
        })
        assert report["shuffle_lowered"] == 1
        assert stats["shuffle_partitions"] == 32  # 16 per side
        assert _equal(base, out)

    def test_empty_buckets_groupby(self, tmp_path):
        data = _write(tmp_path / "eg.csv", "k,v",
                      [f"{i % 3},{i}" for i in range(24)])

        def pipeline():
            return lfp.scan_csv(
                data, partition_bytes=64
            ).groupby("k")["v"].agg("std")

        base, *_ = _run(pipeline)
        out, report, stats = _run(pipeline, options={
            "optimizer.shuffle_threshold_bytes": 10,
            "optimizer.shuffle_partitions": 16,
        })
        assert report["shuffle_lowered"] == 1
        assert stats["shuffle_partitions"] == 16
        assert _equal(base, out)


# ---------------------------------------------------------------------------
# Stats plumbing.
# ---------------------------------------------------------------------------


class TestStats:
    def test_counters_in_to_dict_and_render(self, wide_csv, rightbig_csv):
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")

        with Session(backend="pandas", options={
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
        }) as session:
            pipeline().collect()
            stats = session.last_execution_stats
        d = stats.to_dict()
        for key in ("bytes_spilled", "shuffle_partitions", "broadcast_joins"):
            assert key in d
        rendered = stats.render()
        assert f"shuffle buckets: {d['shuffle_partitions']}" in rendered
        assert f"spilled {d['bytes_spilled']}B" in rendered

    def test_broadcast_counter_in_render(self, wide_csv, tiny_csv):
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            right = lfp.scan_csv(tiny_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")

        with Session(backend="pandas", options={
            "optimizer.shuffle_threshold_bytes": THRESHOLD,
        }) as session:
            pipeline().collect()
            stats = session.last_execution_stats
        assert "broadcast joins: 1" in stats.render()

    def test_report_key_always_present(self, wide_csv):
        with Session(backend="pandas") as session:
            lfp.scan_csv(wide_csv).collect()
            assert session.last_optimize_report["shuffle_lowered"] == 0

    @pytest.mark.parametrize("backend", ["pandas", "modin"])
    def test_no_limit_cuts_nothing(self, wide_csv, rightbig_csv, backend):
        """With no budget and no threshold there is no limit: the eager
        engines run the plan whole."""
        with Session(backend=backend) as session:
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            left = left[left.v > 10]
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            left.merge(right, on="k").groupby("k")["v"].sum().collect()
            report = session.last_optimize_report
            stats = session.last_execution_stats.to_dict()
        assert report["partitions_cut"] == 0
        assert report["shuffle_lowered"] == 0
        assert stats["shuffle_partitions"] == 0
        assert not any(node["op"] == "partial_agg" for node in stats["nodes"])


class TestOnePartitionLowering:
    def test_a_chain_before_a_merge_is_cut_on_the_eager_engines(
            self, wide_csv, rightbig_csv):
        """A row-local chain between the scans and the merge no longer
        keeps the merge whole: the oversized scans are cut and the
        merge is shuffled."""
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=2048)
            left["w"] = left.v * 2
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left[left.w > 100].merge(right, on="k", how="outer")

        base, *_ = _run(pipeline)
        for backend in ("pandas", "modin"):
            out, report, stats = _run(pipeline, backend, options={
                "optimizer.shuffle_threshold_bytes": 100,
            })
            assert report["shuffle_lowered"] == 1
            assert stats["shuffle_partitions"] > 0
            assert _equal(base, out)

    def test_one_store_per_side(self, wide_csv, rightbig_csv):
        """Every piece of a side writes into that side's one store: a
        cut join counts its buckets once per side."""
        def pipeline():
            left = lfp.scan_csv(wide_csv, partition_bytes=512)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="outer")

        for backend in BACKENDS:
            _, _, stats = _run(pipeline, backend, options={
                "optimizer.shuffle_threshold_bytes": 100,
                "optimizer.shuffle_partitions": 5,
            })
            writes = [node for node in stats["nodes"]
                      if node["op"] == "shuffle_write"]
            assert len(writes) > 2
            assert stats["shuffle_partitions"] == 10

    def test_invariant_tool_rejects_a_second_lowering(self, invariants):
        import ast

        for second in (
            "from repro.io.spill import PartitionStream",
            "class PartitionStream:\n    pass",
            "scan.args['stream'] = True",
            "if args.get('stream'):\n    pass",
            "def _lower_merge(node, counts, pinned, opts, limit): ...",
            "lowered += _lower_groupby(node, counts, pinned, opts, limit)",
            "_rewrite_partial(node, scan, pairs, combine, est)",
            "def _rewrite_bucketed(node): ...",
            "est = _streamable_scan(scan, counts, pinned)",
        ):
            assert list(invariants.check_one_partition_lowering(
                ast.parse(second), "core/optimizer/shuffle.py")), second
        # the shuffle ops and the cut's own names pass
        assert not list(invariants.check_one_partition_lowering(
            ast.parse("store = shuffle(parts, keys, 4)\nupstream = 1"),
            "core/optimizer/partitions.py"))
        assert invariants.run() == []


# ---------------------------------------------------------------------------
# Block-at-a-time staging: hash each distinct key once; a spilled chunk
# carries its string-payload byte count.
# ---------------------------------------------------------------------------


def _reference_bucket_ids(frame, keys, n_buckets):
    """The generic row-tuple path of ``_bucket_ids`` (what every key took
    before the single-key fast path)."""
    from repro.backends.shuffle_ops import _NA_TOKEN

    n = len(frame)
    normalized = []
    for key in keys:
        col = frame.column(key)
        values = col.to_array().tolist()
        isna = col.isna()
        normalized.append(
            [_NA_TOKEN if isna[i] else values[i] for i in range(n)]
        )
    return np.array(
        [hash(row) % n_buckets for row in zip(*normalized)], dtype=np.int64
    )


class TestBucketIds:
    @pytest.fixture
    def keyed(self):
        from repro.frame import DataFrame

        n = 200
        rng = np.random.default_rng(11)
        floats = rng.integers(-4, 4, n) / 2.0          # -0.0 and 0.0 both
        with_nan = floats.copy()
        with_nan[::9] = np.nan
        words = np.array([f"w{v}" for v in rng.integers(0, 9, n)], dtype=object)
        holes = words.copy()
        holes[::5] = None
        frame = DataFrame({
            "i": rng.integers(-3, 40, n),
            "f": floats,
            "fna": with_nan,
            "b": rng.integers(0, 2, n).astype(bool),
            "s": words,
            "sna": holes,
            "t": np.datetime64("2024-01-01", "ns")
            + rng.integers(0, 5, n) * np.timedelta64(1, "D"),
        })
        frame = frame.with_column("c", frame.column("s").astype("category"))
        return frame.with_column("cna", frame.column("sna").astype("category"))

    @pytest.mark.parametrize("keys", [
        ["i"], ["f"], ["b"], ["c"],              # distinct-value path
        ["fna"], ["cna"], ["s"], ["sna"], ["t"],  # NA-bearing / generic
        ["i", "c"], ["f", "sna"],                # multi-key
    ])
    @pytest.mark.parametrize("n_buckets", [1, 7, 16])
    def test_equals_the_row_tuple_hash(self, keyed, keys, n_buckets):
        from repro.backends.shuffle_ops import _bucket_ids

        got = _bucket_ids(keyed, keys, n_buckets)
        assert got.dtype == np.int64
        assert got.tolist() == _reference_bucket_ids(
            keyed, keys, n_buckets).tolist()

    def test_equal_keys_of_different_dtypes_colocate(self, keyed):
        from repro.backends.shuffle_ops import _bucket_ids
        from repro.frame import DataFrame

        ints = DataFrame({"k": np.arange(-3, 9)})
        floats = DataFrame({"k": np.arange(-3, 9).astype(np.float64)})
        assert _bucket_ids(ints, ["k"], 5).tolist() \
            == _bucket_ids(floats, ["k"], 5).tolist()


class TestSpilledChunksCarryTheirPayloadCount:
    def test_bucket_chunks_and_spilled_chunks_keep_their_bytes(self, tmp_path):
        from repro.backends.shuffle_ops import _bucket_ids, _split
        from repro.frame import DataFrame
        from repro.frame.dtypes import object_nbytes
        from repro.io.spill import ShuffleStore

        n = 300
        strings = np.array(
            [None if i % 7 == 0 else "x" * (i % 13) for i in range(n)],
            dtype=object)
        frame = DataFrame({"k": np.arange(n) % 11, "s": strings})
        frame = frame.with_column("c", frame.column("s").astype("category"))
        ids = _bucket_ids(frame, ["k"], 4)
        store = ShuffleStore(4, spill_dir=str(tmp_path))
        store.set_template(frame)
        sizes = {}
        for bucket, piece in _split(frame, ids):
            rows = np.nonzero(ids == bucket)[0]
            # the chunk owns exactly the strings it gathered
            assert piece.column("s").nbytes == object_nbytes(strings[rows])
            assert piece["s"].values.tolist() == strings[rows].tolist()
            sizes[bucket] = piece.column("s").nbytes
            store.append(bucket, piece)
        del piece
        assert store.spill_all() == store.bytes_spilled > sum(sizes.values())
        for bucket, size in sizes.items():
            # the count travelled in the pickle; a loaded categorical
            # chunk owns (and is charged for) its own dictionary
            loaded = store.read_bucket(bucket)
            assert loaded.column("s").nbytes == size
            assert loaded.column("c").nbytes == 4 * len(loaded) + object_nbytes(
                loaded.column("c").categories)
        store.close()


# ---------------------------------------------------------------------------
# One spill file per store: chunks are (offset, length) in one append-only
# file, read back positionally.
# ---------------------------------------------------------------------------


def _files_under(root):
    return [
        os.path.join(directory, name)
        for directory, _dirs, names in os.walk(root)
        for name in names
    ]


def _filled_store(tmp_path, n_buckets=4, chunks_per_bucket=3, rows=200):
    """A store of ``n_buckets * chunks_per_bucket`` in-memory chunks and
    what each bucket should drain to."""
    from repro.frame import DataFrame
    from repro.io.spill import ShuffleStore

    store = ShuffleStore(n_buckets, spill_dir=str(tmp_path))
    expected = {b: [] for b in range(n_buckets)}
    for bucket in range(n_buckets):
        for chunk in range(chunks_per_bucket):
            base = (bucket * chunks_per_bucket + chunk) * rows
            frame = DataFrame({
                "k": np.arange(base, base + rows),
                "s": np.array([f"s{i % 9}" for i in range(rows)], dtype=object),
            })
            store.set_template(frame)
            store.append(bucket, frame)
            expected[bucket] += list(range(base, base + rows))
    return store, expected


class TestOneSpillFilePerStore:
    def test_a_store_that_never_spills_touches_no_disk(self, tmp_path):
        store, expected = _filled_store(tmp_path)
        assert store.read_bucket(0)["k"].values.tolist() == expected[0]
        store.close()
        assert os.listdir(tmp_path) == []

    def test_n_spilled_chunks_are_one_file_gone_at_close(self, tmp_path):
        from repro.graph.scheduler.stats import ExecutionStats

        run = ExecutionStats(strategy="serial")
        store, expected = _filled_store(tmp_path)
        with run.bound():
            assert store.spill(1) > 0  # the first spill makes the file
            store.spill_all()
        assert store.spill_chunks == 12
        assert store.in_memory_bytes() == 0
        (path,) = _files_under(tmp_path)
        size = os.path.getsize(path)
        for bucket, rows in expected.items():
            assert store.read_bucket(bucket)["k"].values.tolist() == rows
        # draining reclaims nothing chunk by chunk and creates nothing
        assert _files_under(tmp_path) == [path]
        assert os.path.getsize(path) == size
        assert run.spill_files == 1
        assert run.bytes_spilled == store.bytes_spilled
        store.close()
        assert os.listdir(tmp_path) == []

    def test_the_finalizer_removes_the_file_of_an_abandoned_store(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        store.spill_all()
        assert len(_files_under(tmp_path)) == 1
        del store
        gc.collect()
        assert os.listdir(tmp_path) == []

    @pytest.mark.deadline(60)
    def test_concurrent_drains_equal_the_serial_drain(self, tmp_path):
        """Distinct buckets read over the one descriptor from two
        threads at once (positional reads share no file offset)."""
        import sys
        import threading

        serial, expected = _filled_store(tmp_path / "serial", 8, 6)
        serial.spill_all()
        reference = {
            b: serial.read_bucket(b)["s"].values.tolist() for b in expected
        }
        serial.close()

        store, _ = _filled_store(tmp_path / "threads", 8, 6)
        store.spill_all()
        got, errors = {}, []
        gate = threading.Barrier(2)

        def drain(buckets):
            try:
                gate.wait(timeout=30)
                for bucket in buckets:
                    frame = store.read_bucket(bucket)
                    got[bucket] = (frame["k"].values.tolist(),
                                   frame["s"].values.tolist())
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=drain, args=(range(half, 8, 2),))
                for half in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert {b: rows for b, (rows, _) in got.items()} == expected
        assert {b: strings for b, (_, strings) in got.items()} == reference
        store.close()

    def test_a_mid_drain_oom_leaves_the_bucket_in_place(self, tmp_path):
        from repro.core.session import current_session
        from repro.memory import SimulatedMemoryError, current_memory_manager

        store, expected = _filled_store(tmp_path)
        chunk_bytes = store.appended_bytes // 12
        store.spill_all()
        (path,) = _files_under(tmp_path)
        manager = current_memory_manager()
        live = manager.live
        # two of the bucket's three chunks load, the third does not
        budget = live + 2 * chunk_bytes + chunk_bytes // 2
        with current_session().option_context("memory.budget", budget):
            manager.reset_peak()
            with pytest.raises(SimulatedMemoryError):
                store.read_bucket(1)
            assert manager.peak >= live + 2 * chunk_bytes
        assert store.in_memory_bytes() == 0
        assert _files_under(tmp_path) == [path]
        assert store.read_bucket(1)["k"].values.tolist() == expected[1]
        store.close()

    @pytest.mark.deadline(60)
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_leaves_the_parents_file_intact(self, tmp_path):
        from repro.io.spill import live_store_count

        store, expected = _filled_store(tmp_path)
        store.spill_all()
        (path,) = _files_under(tmp_path)
        pid = os.fork()
        if pid == 0:
            # the child forgot the store and its descriptor: collecting
            # it, or exiting, must not close or remove anything
            status = 1
            try:
                ok = live_store_count() == 0 and store._fd is None
                store.close()
                gc.collect()
                status = 0 if ok else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert _files_under(tmp_path) == [path]
        for bucket, rows in expected.items():
            assert store.read_bucket(bucket)["k"].values.tolist() == rows
        store.close()
        assert os.listdir(tmp_path) == []


class TestDataPathCounters:
    def test_a_projected_scan_decodes_only_its_columns(self, wide_csv):
        with Session(backend="pandas") as session:
            full = lfp.scan_csv(wide_csv).collect()
            everything = session.last_execution_stats.to_dict()["cells_decoded"]
            lfp.scan_csv(wide_csv).groupby("k")["v"].agg("sum").collect()
            stats = session.last_execution_stats
        rows, n_columns = len(full), len(full.columns)
        assert n_columns > 2
        assert everything == rows * n_columns
        assert stats.to_dict()["cells_decoded"] == rows * 2
        assert f"scan cells decoded: {rows * 2}" in stats.render()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_forced_spill_join_makes_at_most_one_file_per_store(
        self, tmp_path, spill_left_csv, rightbig_csv, strategy
    ):
        def pipeline():
            left = lfp.scan_csv(spill_left_csv, partition_bytes=2048)
            right = lfp.scan_csv(rightbig_csv, partition_bytes=512)
            return left.merge(right, on="k", how="inner")

        _, _, stats = _run(pipeline, "pandas", strategy, {
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
            "memory.spill_dir": str(tmp_path),
        })
        assert stats["bytes_spilled"] > 0
        assert 1 <= stats["spill_files"] <= 2  # two stores, one file each
        assert os.listdir(tmp_path) == []
