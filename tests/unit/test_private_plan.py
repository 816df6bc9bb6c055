"""A plan is a private copy of the user's graph.

A run optimizes and executes twins of the raw nodes; a node that
already holds its value is a ``held`` leaf no pass looks beneath, and
what a run pins for ``live_df`` is treated as a root by the optimizer.
The first four tests are the wrong results the shared, rewired-and-
restored graph produced (a filter sank below the node that held the
unfiltered frame; a pin held the value of the narrowed plan under the
raw node's id); the rest pin the contract: nothing a run, an
``explain()`` or a failure does is visible in the graph the user holds.
"""

import copy

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.graph import collect_subgraph, render_plan
from repro.lazyfatpandas.func import print as lazy_print

ENGINES = ("pandas", "modin", "dask")
FLAGS = (
    "optimizer.predicate_pushdown",
    "optimizer.projection_pushdown",
    "optimizer.common_subexpression",
)

every_engine_and_flag = pytest.mark.parametrize(
    "engine,flag,on",
    [(engine, flag, on)
     for engine in ENGINES for flag in FLAGS for on in (True, False)],
)


@pytest.fixture
def table(make_csv):
    x = np.arange(10)
    return make_csv({"x": x, "y": 2 * x, "c": x % 3}, "t.csv")


def _sections(text):
    raw, optimized = text.split("== optimized plan ==")
    return raw.replace("== raw plan ==", "").strip(), optimized.strip()


def _graph_state(roots):
    """Everything about the raw graph a rewrite could have touched (a
    pin's ``[persist]`` mark is a kept value, not wiring)."""
    return render_plan(roots).replace("  [persist]", ""), {
        node.id: (node.op, copy.deepcopy(node.args),
                  [dep.id for dep in node.inputs],
                  [dep.id for dep in node.order_deps])
        for node in collect_subgraph(roots)
    }


class TestHeldValuesAreLeaves:
    @every_engine_and_flag
    def test_filter_over_a_persisted_frame(self, table, engine, flag, on):
        with Session(backend=engine, options={flag: on}):
            hot = lfp.read_csv(table).persist()
            assert len(hot[hot.x > 7].collect()) == 2

    @every_engine_and_flag
    def test_aggregate_over_a_collected_root(self, table, engine, flag, on):
        with Session(backend=engine, options={flag: on}):
            base = lfp.read_csv(table)
            base["m"] = base.x + base.y
            base.collect()
            assert base[base.c == 1].m.sum().collect() == 36

    @every_engine_and_flag
    def test_a_pin_holds_the_raw_nodes_value(self, table, engine, flag, on):
        """``compute(live_df=[a])`` is what the JIT emits."""
        with Session(backend=engine, options={flag: on}):
            a = lfp.read_csv(table)
            a["k"] = a.x + 1
            assert a.k.sum().compute(live_df=[a]) == 55
            assert a.node.persist and a.node.computed
            assert list(a.collect(live=[a]).columns) == ["x", "y", "c", "k"]
            assert len(a[a.x > 8].collect()) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_filter_sinks_below_a_persisted_series_set_as_a_column(
        self, make_csv, engine
    ):
        """``df["t"] = t`` with ``t`` held: a filter re-rooted below the
        setitem would put the 4-row value on the 2-row filtered frame
        (pandas and dask raised, modin returned 14)."""
        path = make_csv({"k": [1, 2, 3, 4], "a": [1, 2, 3, 4],
                         "b": [5, 6, 7, 8]}, "kab.csv")
        with Session(backend=engine):
            df = lfp.read_csv(path)
            t = (df.a + df.b).persist()
            df["t"] = t
            assert df[df.k > 2].t.sum().collect(live=[t]) == 22

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_filter_sinks_below_a_cached_series_set_as_a_column(
        self, make_csv, engine
    ):
        """The ``optimizer.reuse`` spelling: the setitem's value is a
        ``from_cached`` leaf a first session warmed."""
        from repro.cache.result_cache import result_cache

        path = make_csv({"k": [1, 2, 3, 4], "a": [1, 2, 3, 4],
                         "b": [5, 6, 7, 8]}, "kab.csv")
        options = {"optimizer.reuse": True, "cache.min_cost": 0}
        result_cache().clear()
        try:
            with Session(backend=engine, options=options):
                j = lfp.read_csv(path)
                (j.a + j.b).collect()
            with Session(backend=engine, options=options) as session:
                j = lfp.read_csv(path)
                j["t"] = j.a + j.b
                assert j[j.k > 2].t.sum().collect() == 22
                assert session.last_execution_stats.cache_hits == 1
        finally:
            result_cache().clear()

    @every_engine_and_flag
    def test_explain_shows_the_plan_a_collect_runs(
        self, table, engine, flag, on
    ):
        with Session(backend=engine, options={flag: on}) as session:
            hot = lfp.read_csv(table).persist()
            picked = hot[hot.x > 7]
            raw, optimized = _sections(picked.explain())
            assert raw.splitlines()[0].startswith("N1 scan(")
            assert optimized.splitlines()[0] == "N1 held"
            assert "predicate=" not in optimized
            picked.collect()
            # the filter ran over the held frame: nothing was read
            stats = session.last_execution_stats
            assert [n.op for n in stats.nodes].count("scan") == 0
            assert stats.cache_hits == 1


class TestTheRawGraphIsNeverRewritten:
    @staticmethod
    def _pipeline(path):
        df = lfp.read_csv(path)
        df["m"] = df.x + df.y
        picked = df[df.c == 1]
        return picked, picked.groupby(["c"])["m"].sum()

    @every_engine_and_flag
    def test_collect_and_explain(self, table, engine, flag, on):
        with Session(backend=engine, options={flag: on}):
            picked, out = self._pipeline(table)
            roots = [out.node, picked.node]
            before = _graph_state(roots)
            out.explain()
            assert _graph_state(roots) == before
            out.collect(live=[picked])
            assert _graph_state(roots) == before
            picked.collect()
            assert _graph_state(roots) == before

    @every_engine_and_flag
    def test_a_collect_that_raises(self, table, engine, flag, on):
        def boom(value):
            raise RuntimeError("boom")

        with Session(backend=engine, options={flag: on}):
            picked, _ = self._pipeline(table)
            bad = picked.m.map(boom)
            before = _graph_state([bad.node])
            with pytest.raises(RuntimeError, match="boom"):
                bad.collect(live=[picked])
            assert _graph_state([bad.node]) == before
            assert not bad.node.computed
            # and the frame under it still computes what it always did
            assert picked.collect().column("m").to_array().tolist() == [
                3, 12, 21]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_failed_collect_keeps_a_print_that_ran_done(
        self, table, engine, capsys
    ):
        def boom(value):
            raise RuntimeError("boom")

        with Session(backend=engine) as session:
            df = lfp.read_csv(table)
            lazy_print("total", df.x.sum())
            printed = session.pending_prints[-1]
            bad = df.y.map(boom)
            # runs after the print, like the next print would
            bad.node.order_deps.append(printed)
            with pytest.raises(RuntimeError, match="boom"):
                bad.collect()
            assert capsys.readouterr().out == "total 45\n"
            assert printed.computed and not bad.node.computed
            assert df.y.sum().collect() == 90
            assert capsys.readouterr().out == ""
            assert not session.pending_prints
        assert capsys.readouterr().out == ""
