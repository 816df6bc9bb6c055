"""Unit tests for the Modin simulator: eager partitioned execution."""

import numpy as np
import pytest

from repro.backends.modin_sim.frame import ModinFrame, ModinSeries, modin_read_csv
from repro.frame import DataFrame, read_csv
from repro.core.session import Session
from repro.workloads import modin_compat


@pytest.fixture
def shop_csv(make_csv):
    n = 400
    rng = np.random.default_rng(11)
    return make_csv(
        {
            "store": np.array([f"s{i % 6}" for i in range(n)], dtype=object),
            "sku": np.array([f"sku-{i}" for i in range(n)], dtype=object),
            "units": rng.integers(1, 9, n),
            "price": np.round(rng.random(n) * 30, 2),
        },
        "shop.csv",
    )


def load(path, **kw):
    return modin_read_csv(path, partition_bytes=2_000, **kw)


class TestReads:
    def test_partitioned_eager(self, shop_csv):
        frame = load(shop_csv)
        assert isinstance(frame, ModinFrame)
        assert frame.npartitions > 1
        assert len(frame) == 400

    def test_low_cardinality_strings_dictionary_encoded(self, shop_csv):
        frame = load(shop_csv)
        part = frame.partitions[0]
        assert part.column("store").is_category      # 6 distinct values
        assert not part.column("sku").is_category    # unique per row

    def test_usecols(self, shop_csv):
        frame = load(shop_csv, usecols=["units"])
        assert frame.columns == ["units"]

    def test_to_pandas_roundtrip(self, shop_csv):
        whole = load(shop_csv).to_pandas()
        eager = read_csv(shop_csv)
        assert len(whole) == len(eager)
        assert sorted(whole["units"].to_list()) == sorted(eager["units"].to_list())


class TestOperators:
    def test_filter(self, shop_csv):
        frame = load(shop_csv)
        out = frame[frame["units"] > 5]
        eager = read_csv(shop_csv)
        assert len(out) == len(eager[eager["units"] > 5])

    def test_setitem(self, shop_csv):
        frame = load(shop_csv)
        frame["total"] = frame["units"] * frame["price"]
        got = frame.to_pandas()
        assert np.allclose(
            got["total"].values, got["units"].values * got["price"].values
        )

    def test_getattr_column(self, shop_csv):
        frame = load(shop_csv)
        assert isinstance(frame.units, ModinSeries)

    def test_head(self, shop_csv):
        assert len(load(shop_csv).head(7)) == 7

    def test_sort_values_global(self, shop_csv):
        out = load(shop_csv).sort_values("price").to_pandas()
        values = out["price"].values
        assert (values[:-1] <= values[1:]).all()

    def test_drop_duplicates(self, shop_csv):
        out = load(shop_csv).drop_duplicates(subset=["store"])
        assert len(out) == 6

    def test_nlargest(self, shop_csv):
        out = load(shop_csv).nlargest(3, "price").to_pandas()
        eager = read_csv(shop_csv).nlargest(3, "price")
        assert sorted(out["price"].to_list()) == sorted(eager["price"].to_list())

    def test_merge_broadcast(self, shop_csv):
        frame = load(shop_csv)
        dim = DataFrame({"store": [f"s{i}" for i in range(6)], "city": [f"c{i}" for i in range(6)]})
        out = frame.merge(dim, on="store")
        assert len(out) == 400

    def test_apply(self, shop_csv):
        out = load(shop_csv).apply(lambda row: row["units"] + 1, axis=1)
        assert len(out) == 400

    def test_str_dt_accessors(self, make_csv):
        path = make_csv(
            {"name": ["Alice", "Bob"] * 20, "t": ["2024-01-01 05:00:00"] * 40},
            "acc.csv",
        )
        frame = modin_read_csv(path, partition_bytes=300, parse_dates=["t"])
        assert frame["name"].str.lower().to_pandas().values[0] == "alice"
        assert frame["t"].dt.hour.to_pandas().values[0] == 5


class TestGroupBy:
    def test_partial_combine_matches_eager(self, shop_csv):
        out = load(shop_csv).groupby("store")["price"].sum()
        eager = read_csv(shop_csv).groupby("store")["price"].sum()
        assert np.allclose(np.sort(out.values), np.sort(eager.values))

    def test_mean(self, shop_csv):
        out = load(shop_csv).groupby("store")["price"].mean()
        eager = read_csv(shop_csv).groupby("store")["price"].mean()
        assert np.allclose(np.sort(out.values), np.sort(eager.values))

    def test_size(self, shop_csv):
        out = load(shop_csv).groupby("store").size()
        assert out.values.sum() == 400

    def test_agg_dict(self, shop_csv):
        out = load(shop_csv).groupby("store").agg({"units": "sum", "price": "max"})
        assert set(out.columns) == {"units", "price"}

    def test_reductions(self, shop_csv):
        frame = load(shop_csv)
        eager = read_csv(shop_csv)
        assert frame["price"].sum() == pytest.approx(eager["price"].sum())
        assert frame["price"].mean() == pytest.approx(eager["price"].mean())
        assert frame["units"].min() == eager["units"].min()
        assert frame["units"].max() == eager["units"].max()
        assert frame["sku"].nunique() == 400


class TestRunsOnTheSessionEngine:
    """A Modin frame holds no engine of its own: each eager step runs
    on the scheduler and engine of the session it is made in."""

    @pytest.mark.parametrize("engine", ["pandas", "dask", "modin"])
    def test_each_step_applies_its_nodes_on_the_session_engine(
            self, engine, shop_csv, monkeypatch):
        with Session(backend=engine) as session:
            applied = []
            apply = session.backend.apply

            def spy(node, inputs):
                applied.append(node.op)
                return apply(node, inputs)

            monkeypatch.setattr(session.backend, "apply", spy)
            frame = load(shop_csv)
            reads = len(applied)
            assert reads == frame.npartitions > 1
            out = frame[frame["units"] > 5]
            assert len(applied) > reads
        eager = read_csv(shop_csv)
        assert len(out) == len(eager[eager["units"] > 5])


class TestMemoryBehaviour:
    def test_no_spill_means_oom_under_budget(self, make_csv):
        n = 2000
        path = make_csv(
            {"s": np.array([f"unique-{i:09d}-zzzzzz" for i in range(n)], dtype=object)},
            "big.csv",
        )
        frame_bytes = read_csv(path).nbytes
        with Session(options={"memory.budget": int(frame_bytes * 0.5)}):
            with pytest.raises(MemoryError):
                modin_read_csv(path, partition_bytes=2_000)

    def test_import_swap_read(self, shop_csv):
        frame = modin_compat.read_csv(shop_csv)
        assert isinstance(frame, ModinFrame)
        assert isinstance(frame.to_pandas(), DataFrame)

    def test_finished_work_is_not_kept_alive(self, shop_csv):
        """Each op's pieces are fresh leaves: rebinding a name frees the
        frames before it, so the live bytes are the last frame's."""
        from repro.core.session import Session

        with Session(backend="pandas") as session:
            df = load(shop_csv)
            df = df.dropna()
            df = df[df.units > 4]
            assert df.npartitions > 1
            live = session.memory.live
            pieces = df.partitions
            del df  # its nodes go; only the piece values stay
            assert session.memory.live == live
            del pieces
            assert session.memory.live == 0

    def test_invariant_tool_rejects_a_second_executor(self, invariants):
        import ast

        for second in (
            "from concurrent.futures import ThreadPoolExecutor",
            "_POOL = futures.ThreadPoolExecutor(max_workers=4)",
            "os.register_at_fork(after_in_child=_rebuild_pool_after_fork)",
            "parts = _pmap(read, ranges)",
            "def _zip_map(self, other_parts, func): ...",
            "return _resplit(whole, self.npartitions)",
            "from repro.backends.modin_sim.frame import _split_series",
        ):
            assert list(invariants.check_one_partitioned_executor(
                ast.parse(second), "backends/modin_sim/frame.py")), second
        # the scheduler's own pools pass, and so do Dask's hooks
        assert not list(invariants.check_one_partitioned_executor(
            ast.parse("from concurrent.futures import ThreadPoolExecutor"),
            "graph/scheduler/threaded.py"))
        assert not list(invariants.check_one_partitioned_executor(
            ast.parse("out = self._map('dropna', subset=None)"),
            "backends/modin_sim/frame.py"))
        assert invariants.run() == []
