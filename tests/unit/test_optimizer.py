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
        roots = [filtered.node]
        swaps = push_down_predicates(roots)
        assert swaps >= 1
        # after pushdown a fresh setitem consumes a filter, not the raw
        # read; the user's setitem still reads the raw read
        setitems = _ops_below(roots[0], "setitem")
        assert any(s.inputs[0].op == "filter" for s in setitems)
        assert df.node.inputs[0].op == "scan"

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
        roots = [a.node, b.node]
        merged = push_down_predicates(roots)
        assert merged >= 1
        # one fresh setitem over the filter stands for both parents
        assert roots[0] is roots[1]
        assert roots[0].op == "setitem"
        assert roots[0].inputs[0].op == "filter"

    def test_disjunction_pushed_for_different_filters(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        df["k"] = df.passenger_count + 1
        a = df[df.fare_amount > 0]
        b = df[df.tip_amount > 1]
        roots = [a.node, b.node]
        push_down_predicates(roots)
        # below a fresh copy of the shared op only the rows *neither*
        # parent keeps may go: each parent still filters for itself
        # above it
        assert roots[0].op == roots[1].op == "filter"
        shared = roots[0].inputs[0]
        assert shared is roots[1].inputs[0] and shared.op == "setitem"
        pushed = shared.inputs[0]
        assert pushed.op == "filter"
        assert pushed.inputs[1].args.get("op") == "|"
        assert push_down_predicates(roots) == 0

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

    def test_a_disjunction_that_sinks_on_is_pushed_once(self, make_csv):
        """A pushed disjunction can sink past more ops than the one its
        parents share; the parents it serves are rebuilt with a label
        that says so, and no second disjunction follows it."""
        from repro.core.optimizer.predicate_pushdown import (
            fold_predicates_into_scans,
        )
        from repro.core.session import Session
        from repro.graph.explain import render_plan

        path = make_csv({"x": list(range(60)),
                         "y": [i * 3 % 17 for i in range(60)],
                         "z": [i % 9 for i in range(60)]})

        def build():
            df = lfp.read_csv(path)
            df["w"] = df.x + 1
            df["q"] = df.y * 2
            return df[df.x > 30].w.sum(), df[df.z > 5].q.sum()

        plan = [total.node for total in build()]
        assert push_down_predicates(plan) == 2
        assert fold_predicates_into_scans(plan) == 1
        assert push_down_predicates(plan) == 0
        assert fold_predicates_into_scans(plan) == 0
        rendered = render_plan(plan)
        assert rendered.count("[served by a pushed disjunction]") == 2
        assert "predicate=(((z>5) | (x>30)))" in rendered

        got = {}
        for on in (True, False):
            with Session(backend="pandas", options={
                    "optimizer.predicate_pushdown": on}):
                got[on] = [total.collect() for total in build()]
        assert got[True] == got[False]

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


class TestPlansArePrivate:
    def test_invariant_tool_rejects_an_in_place_rewrite(self):
        """Rule 7: outside graph/ nothing assigns a node's op, inputs,
        order deps or args -- into them neither, nor through a dict
        method; a pass builds a fresh node instead."""
        import ast
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_invariants.py")
        spec = importlib.util.spec_from_file_location("check_invariants",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for rewrite in (
            "old.op = 'identity'",
            "node.inputs = list(sort.inputs)",
            "node.op, node.inputs = new.op, new.inputs",
            "node.inputs[i] = made[key]",
            "node.order_deps[0] = dep",
            "del node.inputs[1]",
        ):
            for module in ("core/optimizer/projection.py", "core/session.py"):
                assert list(tool.check_plan_is_private(
                    ast.parse(rewrite), module)), (rewrite, module)
            assert not list(tool.check_plan_is_private(
                ast.parse(rewrite), "graph/taskgraph.py")), rewrite
        for stamp in (
            "node.args = {}",
            "node.args['columns'] = sorted(needs)",
            "node.args['n'] += 1",
            "del node.args['predicate']",
            "node.args.update(stamped)",
            "node.args.pop('est_bytes', None)",
            "node.args.setdefault('dtype', {})",
            "node.args.clear()",
        ):
            for module in ("core/optimizer/projection.py", "backends/base.py"):
                assert list(tool.check_plan_is_private(
                    ast.parse(stamp), module)), (stamp, module)
            assert not list(tool.check_plan_is_private(
                ast.parse(stamp), "graph/node.py")), stamp
        # what is no node's args stays allowed: a pin's persistence, a
        # local dict, and the JIT's edit of an ``ast.Call``'s arguments
        for allowed, module in (
            ("node.persist = True", "core/optimizer/pipeline.py"),
            ("args['columns'] = list(usecols)", "io/api.py"),
            ("call.args[i] = _wrap_compute(arg, live_out)",
             "analysis/rewrite/forced_compute.py"),
        ):
            assert not list(tool.check_plan_is_private(
                ast.parse(allowed), module)), allowed
        assert tool.run() == []


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

    def test_existing_usecols_narrowed_to_the_run(self, taxi_csv):
        """A ``usecols`` is the most the program may read; a run reads
        only what it uses of it."""
        usecols = ["vendor", "fare_amount", "tip_amount"]
        df = lfp.read_csv(taxi_csv, usecols=usecols)
        total = df.groupby(["vendor"])["fare_amount"].sum()
        assert push_down_projections([total.node]) == 1
        read = _ops_below(total.node, "scan")[0]
        assert read.args["columns"] == ["fare_amount", "vendor"]
        frame = lfp.read_csv(taxi_csv, usecols=usecols).collect()
        assert sorted(frame.columns) == sorted(usecols)

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


class TestNarrowedIntermediates:
    """Projection pushdown past the scans: row copies and merge sides
    carry only what their readers use, a sort + head is a top-n, and
    none of it changes a value or a printed line."""

    def test_row_copy_reads_only_its_readers_columns(self, taxi_csv):
        from repro.graph.explain import render_plan

        df = lfp.read_csv(taxi_csv)  # a root: the scan stays whole
        tips = df.sort_values("fare_amount")[["tip_amount"]]
        assert push_down_projections([df.node, tips.node]) == 1
        edge = _ops_below(tips.node, "sort_values")[0].inputs[0]
        assert edge.op == "getitem_columns"
        assert edge.args["columns"] == ["fare_amount", "tip_amount"]
        assert "[narrowed for sort_values]" in render_plan([tips.node])

    def test_a_filter_edge_leaves_out_its_mask_columns(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        cheap = df[df.fare_amount < 10.0][["vendor"]]
        assert push_down_projections([df.node, cheap.node]) == 1
        kept = _ops_below(cheap.node, "filter")[0]
        assert kept.inputs[0].args["columns"] == ["vendor"]
        assert kept.inputs[1].inputs[0].args["column"] == "fare_amount"

    def test_a_run_through_an_edge_keeps_every_value(self, taxi_csv):
        from repro.core.session import Session

        got = {}
        for on in (True, False):
            with Session(backend="pandas", options={
                    "optimizer.projection_pushdown": on}) as session:
                df = lfp.read_csv(taxi_csv)
                cheap = df[df.fare_amount < 10.0][["vendor", "note"]]
                # ``df`` is kept live, so its scan is read whole
                got[on] = cheap.compute(live_df=[df])
                report = session.last_optimize_report
            assert report["projection"] == (1 if on else 0)
        for name in ("vendor", "note"):
            assert got[True][name].to_list() == got[False][name].to_list()
        assert list(got[True].index.to_array()) == list(
            got[False].index.to_array())

    def test_a_merge_side_is_narrowed_on_its_edge(self, make_csv):
        left = make_csv({"k": [1, 2, 3], "a": [1, 2, 3], "s": ["p", "q", "r"]},
                        "left.csv")
        right = make_csv({"k": [1, 2, 5], "b": [5, 6, 7]}, "right.csv")
        df = lfp.read_csv(left)
        out = df.merge(lfp.read_csv(right), on="k").groupby(["k"])["b"].sum()
        # the right scan narrows; the left one is a root, so its edge does
        assert push_down_projections([df.node, out.node]) == 2
        merge = _ops_below(out.node, "merge")[0]
        assert merge.inputs[0].op == "getitem_columns"
        assert merge.inputs[0].args["columns"] == ["k"]
        assert out.collect().to_list() == [5, 6]

    def test_sort_and_head_is_a_top_n(self, taxi_csv):
        from repro.frame import read_csv

        worst = lfp.read_csv(taxi_csv).sort_values(
            "fare_amount", ascending=False).head(4)
        assert worst.explain().count("[top-n of sort_values + head]") == 1
        roots = [worst.node]
        assert push_down_projections(roots) == 1
        # the head is replaced in its root slot; the user's node stays
        top, = roots
        assert top.op == "nlargest" and worst.node.op == "head"
        assert top.args == {"n": 4, "columns": "fare_amount"}
        assert not _ops_below(top, "sort_values")
        want = read_csv(taxi_csv).sort_values(
            "fare_amount", ascending=False).head(4)
        got = worst.collect()
        assert list(got.index.to_array()) == list(want.index.to_array())
        assert got.fare_amount.to_list() == want["fare_amount"].to_list()

    @pytest.mark.parametrize("shape", ["mixed", "series", "shared", "root"])
    def test_a_sort_that_is_not_only_a_heads_input_stays(self, taxi_csv,
                                                          shape):
        df = lfp.read_csv(taxi_csv)
        by = ["vendor", "fare_amount"]
        if shape == "mixed":
            head = df.sort_values(by, ascending=[True, False]).head(3)
            roots = [head.node]
        elif shape == "series":
            head = df.fare_amount.sort_values().head(3)
            roots = [head.node]
        else:
            ranked = df.sort_values(by)
            head = ranked.head(3)
            other = ranked.tip_amount.sum() if shape == "shared" else ranked
            roots = [head.node, other.node]
        push_down_projections(roots)
        assert roots[0] is head.node and head.node.op == "head"

    def test_usecols_scan_keeps_what_a_head_print_shows(self, taxi_csv,
                                                        capsys):
        """A printed head needs every column that reaches it: the run
        narrows no further than the ``usecols``, and prints the same."""
        from repro.core.session import Session
        from repro.lazyfatpandas.func import print as lazy_print

        usecols = ["vendor", "fare_amount", "tip_amount"]
        printed = []
        for on in (True, False):
            with Session(backend="pandas", options={
                    "optimizer.projection_pushdown": on}):
                df = lfp.read_csv(taxi_csv, usecols=usecols)
                lazy_print(df.sort_values("fare_amount").head())
                # the collect runs the pending print too
                df[df.tip_amount > 2.0].groupby(["vendor"])[
                    "fare_amount"].sum().collect()
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and "tip_amount" in printed[0]

    def test_optimizing_an_optimized_plan_rewrites_nothing(self, taxi_csv):
        from repro.core.optimizer import optimize
        from repro.core.session import Session
        from repro.graph.taskgraph import physical_plan

        with Session(backend="pandas") as session:
            df = lfp.read_csv(taxi_csv, usecols=[
                "vendor", "fare_amount", "tip_amount", "note"])
            df = df[df.fare_amount > 5.0]
            top = df.sort_values("tip_amount").head(3)[["vendor"]]
            total = df[df.vendor != "v1"].groupby(["vendor"])[
                "tip_amount"].sum()
            twins = physical_plan([top.node, total.node])
            plan = [twins[top.node.id], twins[total.node.id]]
            first = optimize(plan, session, live_nodes=[])
            assert first["projection"] >= 2
            again = optimize(plan, session, live_nodes=[])
            assert (again["pushdown"], again["scan_fold"],
                    again["projection"]) == (0, 0, 0)


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
        # a fresh scan with the hints stands where the read stood
        read_args = _ops_below(total_series.node, "scan")[0].args
        assert "dtype" not in df.node.args
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
