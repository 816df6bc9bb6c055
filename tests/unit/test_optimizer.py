"""Unit tests for the runtime optimizer rules (section 3)."""

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.optimizer import (
    apply_metadata_hints,
    eliminate_common_subexpressions,
    push_down_predicates,
    push_down_projections,
)
from repro.core.optimizer.predicate_pushdown import structurally_equal
from repro.core.session import current_session, reset_root_session
from repro.graph import Node, collect_subgraph
from repro.metastore import MetaStore


@pytest.fixture(autouse=True)
def _pandas_backend():
    lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
    reset_root_session("pandas")
    yield
    lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK


def _ops_below(root, op):
    return [n for n in collect_subgraph([root]) if n.op == op]


class TestPredicatePushdown:
    def test_filter_moves_below_setitem(self, taxi_csv):
        df = lfp.read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        df["day"] = df.tpep_pickup_datetime.dt.dayofweek
        filtered = df[df.fare_amount > 0]
        root = filtered.node
        swaps = push_down_predicates([root])
        assert swaps >= 1
        # after pushdown the setitem consumes a filter, not the raw read
        setitems = _ops_below(root, "setitem")
        assert any(s.inputs[0].op == "filter" for s in setitems)

    def test_pushdown_result_is_correct(self, taxi_csv):
        from repro.frame import read_csv

        df = lfp.read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        df["day"] = df.tpep_pickup_datetime.dt.dayofweek
        filtered = df[df.fare_amount > 0]
        result = filtered.groupby(["day"])["passenger_count"].sum().compute()

        eager = read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        eager["day"] = eager.tpep_pickup_datetime.dt.dayofweek
        expected = (
            eager[eager.fare_amount > 0]
            .groupby(["day"])["passenger_count"]
            .sum()
        )
        assert np.array_equal(
            np.sort(result.values), np.sort(expected.values)
        )

    def test_not_pushed_below_groupby(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        agg = df.groupby(["vendor"], as_index=False).agg({"fare_amount": "sum"})
        filtered = agg[agg.fare_amount > 100.0]
        swaps = push_down_predicates([filtered.node])
        assert swaps == 0

    def test_not_pushed_below_merge(self):
        left = lfp.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        right = lfp.DataFrame({"k": [1], "w": [5.0]})
        joined = left.merge(right, on="k")
        filtered = joined[joined.w > 0]
        assert push_down_predicates([filtered.node]) == 0

    def test_not_pushed_when_setitem_modifies_used_column(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["fare_amount"] = df.fare_amount * 2  # modifies the filter column
        filtered = df[df.fare_amount > 0]
        setitem_node = df.node
        push_down_predicates([filtered.node])
        # the setitem must still consume the read directly
        assert setitem_node.inputs[0].op == "scan"

    def test_not_pushed_when_intermediate_has_other_consumer(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["k"] = df.passenger_count + 1
        other_use = df.k.sum()  # second consumer of the setitem
        filtered = df[df.fare_amount > 0]
        push_down_predicates([filtered.node, other_use.node])
        assert df.node.inputs[0].op == "scan"

    def test_not_pushed_when_cse_shares_the_masks_column_read(self, taxi_csv):
        """The mask's own column reads move with the filter -- unless
        CSE merged one with an unfiltered read of the same column, which
        stays behind reading the op and must not see filtered rows."""
        def build():
            df = lfp.read_csv(taxi_csv).drop(columns=["tip_amount"])
            return (df[df.fare_amount > 10].fare_amount.sum()
                    + df.fare_amount.sum() * 1000)

        session = current_session()
        with session.option_context("optimizer.predicate_pushdown", False):
            expected = build().compute()
        assert build().compute() == expected
        assert session.last_optimize_report["pushdown"] == 0

    def test_filter_enters_a_run_only_to_pass_what_it_sits_on(self, taxi_csv):
        """A filter hops the filter under it when it will also pass the
        op under both -- every condition, not just the columns: here the
        derived column is not elementwise, so nothing may move, once or
        on any later run."""
        df = lfp.read_csv(taxi_csv)
        df["running"] = df.tip_amount.cummax()
        low = df[df.fare_amount > 0]
        top = low[low.passenger_count > 1]
        before = len(collect_subgraph([top.node]))
        assert push_down_predicates([top.node]) == 0
        assert len(collect_subgraph([top.node])) == before
        assert top.node.inputs[0] is low.node

    def test_same_filter_multi_parent_merged(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["k"] = df.passenger_count + 1
        a = df[df.fare_amount > 0]
        b = df[df.fare_amount > 0]
        merged = push_down_predicates([a.node, b.node])
        assert merged >= 1
        assert df.node.inputs[0].op == "filter"

    def test_disjunction_pushed_for_different_filters(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["k"] = df.passenger_count + 1
        a = df[df.fare_amount > 0]
        b = df[df.tip_amount > 1]
        push_down_predicates([a.node, b.node])
        pushed = df.node.inputs[0]
        assert pushed.op == "filter"
        # below the shared op only the rows *neither* parent keeps may
        # go: each parent still filters for itself above it
        assert pushed.inputs[1].args.get("op") == "|"
        assert a.node.op == b.node.op == "filter"
        assert push_down_predicates([a.node, b.node]) == 0

    @pytest.mark.parametrize("same", [True, False])
    def test_multi_parent_pushdown_keeps_every_parents_rows(
        self, taxi_csv, same
    ):
        def build():
            df = lfp.read_csv(taxi_csv)
            df["k"] = df.passenger_count + 1
            a = df[df.fare_amount > 10]
            b = df[df.fare_amount > 10] if same else df[df.tip_amount > 2]
            return a.k.sum() + b.k.sum() * 1000

        session = current_session()
        with session.option_context("optimizer.predicate_pushdown", False):
            expected = build().compute()
        assert build().compute() == expected
        assert session.last_optimize_report["pushdown"] >= 1

    def test_structural_equality(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        m1 = (df.fare_amount > 0).node
        m2 = (df.fare_amount > 0).node
        m3 = (df.fare_amount > 1).node
        assert structurally_equal(m1, m2)
        assert not structurally_equal(m1, m3)


class TestCSE:
    def test_identical_chains_merge(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        a = df[df.fare_amount > 0].passenger_count.sum()
        b = df[df.fare_amount > 0].passenger_count.sum()
        merged = eliminate_common_subexpressions([a.node, b.node])
        assert merged >= 2

    def test_different_predicates_not_merged(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        a = df[df.fare_amount > 0].node
        b = df[df.fare_amount > 1].node
        eliminate_common_subexpressions([a, b])
        assert a is not b
        assert a.inputs[1] is not b.inputs[1]

    def test_udf_nodes_never_merge(self):
        df = lfp.DataFrame({"x": [1]})
        a = df.x.map(lambda v: v).node
        b = df.x.map(lambda v: v).node
        eliminate_common_subexpressions([a, b])
        # the identical getitem below may merge; the UDF maps must not
        maps = [n for n in collect_subgraph([a, b]) if n.op == "series_map"]
        assert len(maps) == 2

    def test_prints_never_merge(self):
        p1 = Node("print", args={"segments": []})
        p2 = Node("print", args={"segments": []})
        assert eliminate_common_subexpressions([p1, p2]) == 0


class TestProjectionPushdown:
    def test_usecols_inferred_for_aggregation(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        total = df.groupby(["vendor"])["fare_amount"].sum()
        narrowed = push_down_projections([total.node])
        assert narrowed == 1
        read = _ops_below(total.node, "scan")[0]
        assert set(read.args["columns"]) == {"vendor", "fare_amount"}

    def test_setitem_column_not_required_from_source(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["extra"] = df.fare_amount * 2
        out = df.groupby(["vendor"])["extra"].sum()
        push_down_projections([out.node])
        read = _ops_below(out.node, "scan")[0]
        assert "extra" not in read.args["columns"]
        assert "fare_amount" in read.args["columns"]

    def test_whole_frame_root_blocks_projection(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        filtered = df[df.fare_amount > 0]
        assert push_down_projections([filtered.node]) == 0
        assert filtered.node.inputs[0].args.get("columns") is None

    def test_root_source_stays_whole_whoever_else_reads_it(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        total = df.fare_amount.sum()
        assert push_down_projections([df.node, total.node]) == 0
        assert "columns" not in df.node.args

    def test_head_print_heuristic_allows_projection(self, taxi_csv):
        from repro.lazyfatpandas.func import print as lazy_print

        df = lfp.read_csv(taxi_csv)
        lazy_print(df.head())
        total = df.groupby(["vendor"])["fare_amount"].sum()
        session = current_session()
        roots = list(session.pending_prints) + [total.node]
        narrowed = push_down_projections(roots)
        assert narrowed == 1
        session.pending_prints.clear()

    def test_print_whole_frame_blocks_projection(self, taxi_csv):
        from repro.lazyfatpandas.func import print as lazy_print

        df = lfp.read_csv(taxi_csv)
        lazy_print(df)
        total = df.groupby(["vendor"])["fare_amount"].sum()
        session = current_session()
        roots = list(session.pending_prints) + [total.node]
        assert push_down_projections(roots) == 0
        session.pending_prints.clear()

    def test_existing_usecols_untouched(self, taxi_csv):
        df = lfp.read_csv(taxi_csv, usecols=["vendor", "fare_amount", "tip_amount"])
        total = df.groupby(["vendor"])["fare_amount"].sum()
        push_down_projections([total.node])
        read = _ops_below(total.node, "scan")[0]
        assert set(read.args["columns"]) == {"vendor", "fare_amount", "tip_amount"}

    def test_rename_maps_requirements_back(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        renamed = df.rename(columns={"fare_amount": "fare"})
        out = renamed.groupby(["vendor"])["fare"].sum()
        push_down_projections([out.node])
        read = _ops_below(out.node, "scan")[0]
        assert "fare_amount" in read.args["columns"]

    # -- through a merge ---------------------------------------------------

    @pytest.fixture
    def join_csvs(self, make_csv):
        left = make_csv({"k": [1, 2, 3, 4], "a": [1, 2, 3, 4],
                         "s": ["p", "q", "r", "s"], "x": [9, 8, 7, 6]},
                        "left.csv")
        right = make_csv({"k": [1, 2, 3, 5], "b": [5, 6, 7, 8],
                          "t": ["u", "v", "w", "z"], "x": [0, 1, 0, 1]},
                         "right.csv")
        return left, right

    @staticmethod
    def _scan_columns(root, *paths):
        by_path = {n.args["path"]: n.args.get("columns")
                   for n in _ops_below(root, "scan")}
        return [by_path[p] for p in paths]

    def test_merge_on_narrows_both_sides(self, join_csvs):
        left, right = join_csvs
        joined = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
        out = joined.groupby(["k"])["b"].sum()
        assert push_down_projections([out.node]) == 2
        # the key, the shared "x" (its suffixes), and the label asked for
        assert self._scan_columns(out.node, left, right) == [
            ["k", "x"], ["b", "k", "x"]]

    def test_merge_left_on_right_on(self, make_csv):
        left = make_csv({"lk": [1, 2], "a": [3, 4], "s": ["p", "q"]}, "l.csv")
        right = make_csv({"rk": [1, 2], "b": [5, 6], "t": ["u", "v"]},
                         "r.csv")
        joined = lfp.read_csv(left).merge(
            lfp.read_csv(right), left_on="lk", right_on="rk")
        out = joined.groupby(["rk"])["a"].sum()
        assert push_down_projections([out.node]) == 2
        assert self._scan_columns(out.node, left, right) == [
            ["a", "lk"], ["rk"]]

    def test_natural_join_keys_on_shared_columns(self, make_csv):
        left = make_csv({"k": [1, 2], "a": [3, 4], "s": ["p", "q"]}, "l.csv")
        right = make_csv({"k": [1, 2], "b": [5, 6], "t": ["u", "v"]},
                         "r.csv")
        joined = lfp.read_csv(left).merge(lfp.read_csv(right))
        out = joined[["b"]]
        assert push_down_projections([out.node]) == 2
        assert self._scan_columns(out.node, left, right) == [
            ["k"], ["b", "k"]]

    def test_shared_column_keeps_both_sides_and_suffixes(self, join_csvs):
        left, right = join_csvs
        out = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")[
            ["x_y", "a"]]
        push_down_projections([out.node])
        assert self._scan_columns(out.node, left, right) == [
            ["a", "k", "x"], ["k", "x"]]
        got = out.collect()
        assert list(got.columns) == ["x_y", "a"]
        assert got.x_y.to_list() == [0, 1, 0]

    def test_whole_merge_root_or_print_keeps_both_sides(self, join_csvs):
        from repro.lazyfatpandas.func import print as lazy_print

        left, right = join_csvs
        joined = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
        assert push_down_projections([joined.node]) == 0

        joined = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
        lazy_print(joined)
        total = joined.a.sum()
        session = current_session()
        roots = list(session.pending_prints) + [total.node]
        assert push_down_projections(roots) == 0
        session.pending_prints.clear()

    def test_unresolvable_source_keeps_both_sides(self, join_csvs, tmp_path):
        left, _right = join_csvs
        missing = str(tmp_path / "missing.csv")
        joined = lfp.read_csv(left).merge(lfp.read_csv(missing), on="k")
        out = joined.groupby(["k"])["a"].sum()
        assert push_down_projections([out.node]) == 0
        assert self._scan_columns(out.node, left, missing) == [None, None]

    def test_reuse_candidate_merge_stays_whole_and_hits(self, join_csvs):
        from repro.cache.result_cache import result_cache
        from repro.core.optimizer import optimize
        from repro.core.session import Session
        from repro.graph.taskgraph import physical_plan

        left, right = join_csvs
        reuse = {"optimizer.reuse": True, "cache.min_cost": 0.0}

        def suffix(column):
            joined = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
            return joined.groupby(["k"])[column].sum()

        result_cache().clear()
        try:
            with Session(backend="pandas", options=reuse) as session:
                plan = suffix("a")
                twin = physical_plan([plan.node])[plan.node.id]
                optimize([twin], session, live_nodes=[])
                assert self._scan_columns(twin, left, right) == [None, None]
                plan.collect()
            with Session(backend="pandas", options=reuse) as session:
                assert suffix("b").collect().to_list() == [5, 6, 7]
                stats = session.last_execution_stats
            assert stats.cache_hits >= 1 and stats.nodes_executed > 1
        finally:
            result_cache().clear()


class TestMetadataOptimization:
    def test_dtype_hints_injected(self, make_csv, tmp_path):
        path = make_csv({"cat": ["a", "b"] * 100, "num": list(range(200))})
        store = MetaStore(str(tmp_path / "ms"))
        store.compute_and_store(path, sample_rows=None)
        session = current_session()
        session.metastore = store

        df = lfp.read_csv(path)
        total_series = df.groupby(["cat"])["num"].sum()
        from repro.core.optimizer import apply_metadata_hints

        updated = apply_metadata_hints([total_series.node], store)
        assert updated == 1
        read_args = df.node.args
        assert read_args["dtype"]["num"] == "int64"
        assert read_args["dtype"]["cat"] == "category"
        assert total_series.compute().values.sum() == sum(range(200))

    def test_mutated_column_not_category(self, make_csv, tmp_path):
        path = make_csv({"cat": ["a", "b"] * 100, "num": list(range(200))})
        store = MetaStore(str(tmp_path / "ms"))
        store.compute_and_store(path, sample_rows=None)
        current_session().metastore = store

        df = lfp.read_csv(path)
        df["cat"] = df.cat.str.upper()  # mutation: category unsafe
        out = df.groupby(["cat"])["num"].sum()
        from repro.core.optimizer import apply_metadata_hints

        apply_metadata_hints([out.node], store)
        dtype = df.node.inputs[0].args.get("dtype") or {}
        assert dtype.get("cat") != "category"
        assert dtype.get("num") == "int64"

    def test_static_mutated_cols_respected(self, make_csv, tmp_path):
        path = make_csv({"cat": ["a", "b"] * 100, "num": list(range(200))})
        store = MetaStore(str(tmp_path / "ms"))
        store.compute_and_store(path, sample_rows=None)
        current_session().metastore = store

        df = lfp.read_csv(path, mutated_cols=["cat"])
        out = df.groupby(["cat"])["num"].sum()
        from repro.core.optimizer import apply_metadata_hints

        apply_metadata_hints([out.node], store)
        dtype = df.node.args.get("dtype") or {}
        assert dtype.get("cat") != "category"

    def test_no_metastore_is_noop(self, taxi_csv):
        from repro.core.optimizer import apply_metadata_hints

        df = lfp.read_csv(taxi_csv)
        out = df.fare_amount.sum()
        assert apply_metadata_hints([out.node], None) == 0
        assert "dtype" not in df.node.args


class TestPlannerBudget:
    """How many times ``optimize()`` walks the whole graph must not
    depend on the plan's size: a planner that re-derives the subgraph
    per filter (or per sweep) is quadratic, and fails here without a
    clock.  Bounded walks over one predicate's expression are free."""

    @pytest.fixture
    def graph_walks(self, monkeypatch):
        import sys

        from repro.graph import taskgraph

        calls = []

        def counted(func):
            def wrapper(*args, **kwargs):
                calls.append(func.__name__)
                return func(*args, **kwargs)
            return wrapper

        for name in ("collect_subgraph", "topological_order",
                     "ConsumerIndex"):
            real = getattr(taskgraph, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro.")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, counted(real))
        return calls

    @staticmethod
    def _deep(path, n):
        df = lfp.read_csv(path)
        for j in range(n):
            df = df[df.fare_amount > -1000 - j]
        return df.tip_amount.sum()

    @staticmethod
    def _wide(path, n):
        df = lfp.read_csv(path)
        df = df[df.fare_amount > -1000]
        total = (df.tip_amount + 0).sum()
        for k in range(1, n):
            total = total + (df.tip_amount + k).sum()
        return total

    @staticmethod
    def _sinking(path, n):
        """One filter above ``n`` derived columns: it makes ``n`` swaps."""
        df = lfp.read_csv(path)
        for j in range(n):
            df[f"c{j}"] = df.tip_amount + j
        return df[df.fare_amount > 0].c0.sum()

    @pytest.mark.parametrize("shape, small, large", [
        ("_deep", 10, 40), ("_wide", 3, 12), ("_sinking", 5, 20),
    ])
    def test_graph_walks_do_not_grow_with_the_plan(
        self, taxi_csv, graph_walks, shape, small, large
    ):
        from repro.core.optimizer import optimize

        session = current_session()
        counts = []
        for size in (small, large):
            root = getattr(self, shape)(taxi_csv, size).node
            del graph_walks[:]
            report = optimize([root], session, live_nodes=[])
            counts.append(sorted(graph_walks))
            if shape == "_sinking":
                assert report["pushdown"] == size
        assert counts[0] == counts[1]
        assert len(counts[1]) <= 12


class TestFlagToggles:
    def test_flags_disable_rules(self, taxi_csv):
        session = current_session()
        session.set_option("optimizer.predicate_pushdown", False)
        session.set_option("optimizer.projection_pushdown", False)
        session.set_option("optimizer.common_subexpression", False)
        df = lfp.read_csv(taxi_csv)
        df["day"] = df.passenger_count + 1
        filtered = df[df.fare_amount > 0]
        filtered.day.sum().compute()
        report = session.last_optimize_report
        assert report["pushdown"] == 0
        assert report["projection"] == 0
        assert report["cse"] == 0
