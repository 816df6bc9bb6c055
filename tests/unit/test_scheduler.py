"""Unit tests for the scheduler subsystem.

Covers the strategy table, the ready-set taskgraph helpers on
diamond / multi-root / shared-subexpression shapes, strategy
equivalence (serial == threaded == fused), linear-chain fusion,
per-node execution statistics, memory-aware admission, and per-session
memory-budget isolation under concurrency.
"""

import contextlib
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.backends import PandasBackend
from repro.core.session import Session
from repro import choose
from repro.graph import (
    STRATEGIES as STRATEGY_TABLE,
    Node,
    consumers_by_id,
    dependency_counts,
    topological_order,
)
from repro.graph.scheduler import (
    FusedScheduler,
    ProcessScheduler,
    SerialScheduler,
    ThreadedScheduler,
    fuse_linear_chains,
)
from repro.graph.scheduler import stats as stats_module
from repro.graph.scheduler.order import priority_topological_order
from repro.graph.scheduler.stats import (
    COUNTERS,
    ExecutionStats,
    NodeStat,
    count,
    counter_lines,
)
from repro.memory import SimulatedMemoryError

STRATEGIES = ["serial", "threaded", "fused", "process"]

#: the drivers that overlap tasks: both ask the one admission rule
PARALLEL_SCHEDULERS = [ThreadedScheduler, ProcessScheduler]

#: the grid forks worker pools (tests/conftest.py)
pytestmark = pytest.mark.deadline(60)


@contextlib.contextmanager
def _scheduler(strategy, backend=None, options=()):
    """A ``strategy`` scheduler built the one way, by a session with
    ``options``; the session's worker pool is shut down afterwards."""
    session = Session(backend="pandas",
                      options={"executor.strategy": strategy, **dict(options)})
    try:
        yield session.scheduler(backend)
    finally:
        session.close()


def _diamond():
    src = Node("from_data", args={"data": {"x": [1, 2, 3]}})
    left = Node("identity", inputs=[src])
    right = Node("identity", inputs=[src])
    join = Node("concat", inputs=[left, right])
    return src, left, right, join


def _multi_root():
    src_a = Node("from_data", args={"data": {"x": [1]}})
    src_b = Node("from_data", args={"data": {"x": [2]}})
    col_a = Node("getitem_column", inputs=[src_a], args={"column": "x"})
    col_b = Node("getitem_column", inputs=[src_b], args={"column": "x"})
    return src_a, src_b, col_a, col_b


def _shared_subexpression():
    src = Node("from_data", args={"data": {"x": [1, 2]}})
    shared = Node("getitem_column", inputs=[src], args={"column": "x"})
    s1 = Node("series_agg", inputs=[shared], args={"func": "sum"})
    s2 = Node("series_agg", inputs=[shared], args={"func": "max"})
    return src, shared, s1, s2


#: name -> roots of a fresh graph of that shape
GRAPH_ROOTS = {
    "diamond": lambda: [_diamond()[3]],
    "multi_root": lambda: list(_multi_root()[2:]),
    "shared_subexpression": lambda: list(_shared_subexpression()[2:]),
}


def _raises(value):
    raise ValueError("boom")


def _frames_equal(a, b) -> bool:
    from repro.frame import DataFrame, Series

    if isinstance(a, Series) and isinstance(b, Series):
        return np.array_equal(a.column.to_array(), b.column.to_array())
    if isinstance(a, DataFrame) and isinstance(b, DataFrame):
        if list(a.columns) != list(b.columns):
            return False
        return all(
            np.array_equal(a.column(c).to_array(), b.column(c).to_array())
            for c in a.columns
        )
    return a == b


@pytest.fixture
def numbers_csv(make_csv):
    n = 120
    return make_csv(
        {
            "x": np.arange(n) - 17,
            "y": np.arange(n) % 5,
            "w": np.round(np.linspace(0.0, 9.5, n), 2),
            "tag": np.array([f"t{i % 3}" for i in range(n)], dtype=object),
        },
        "numbers.csv",
    )


class TestExecutorRegistry:
    def test_stock_strategies_registered(self):
        assert sorted(STRATEGY_TABLE) == [
            "fused", "process", "serial", "threaded",
        ]
        assert "threaded" in STRATEGY_TABLE

    def test_unknown_strategy_lists_choices(self):
        with pytest.raises(ValueError, match="fused.*process.*serial"):
            choose(STRATEGY_TABLE, "quantum", "executor strategy")

    @pytest.mark.parametrize(
        "cls", [SerialScheduler, ThreadedScheduler, FusedScheduler,
                ProcessScheduler],
        ids=lambda cls: cls.name,
    )
    def test_scheduler_needs_a_session(self, cls):
        with pytest.raises(TypeError, match="session"):
            cls(PandasBackend())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_session_builds_the_named_strategy(self, strategy):
        """``Session.scheduler`` is the one constructor: the scheduler
        it builds runs on the session's engine and holds the session,
        its manager and the executor options in force."""
        with _scheduler(strategy, options={
            "executor.max_workers": 3,
            "executor.static_order": False,
            "memory.budget": 1 << 20,
        }) as scheduler:
            session = scheduler.session
            assert type(scheduler) is STRATEGY_TABLE[strategy]
            assert scheduler.backend is session.backend
            assert scheduler.memory is session.memory
            assert scheduler.memory.budget == 1 << 20
            assert scheduler.max_workers == 3
            assert scheduler.static_order is False

    def test_each_call_builds_a_fresh_scheduler(self):
        """One scheduler per collect: no run state is shared between
        two calls, and a caller's backend replaces the engine's."""
        with Session(backend="pandas") as session:
            backend = PandasBackend()
            first, second = session.scheduler(), session.scheduler(backend)
            assert first is not second
            assert first.backend is session.backend
            assert second.backend is backend
            assert first.memory is second.memory is session.memory

    @pytest.mark.parametrize("strategy", ["warp", "async"])
    def test_unknown_strategy_errors_at_collect(self, strategy):
        """A strategy name that no longer exists (``async``, say, still
        set in ``LAFP_EXECUTOR_STRATEGY``) fails cleanly at collect and
        names the strategies there are."""
        with Session(backend="pandas",
                     options={"executor.strategy": strategy}):
            frame = lfp.DataFrame({"x": [1, 2]})
            with pytest.raises(ValueError) as caught:
                frame.collect()
        assert str(caught.value) == (
            f"unknown executor strategy {strategy!r}; choose from "
            "['fused', 'process', 'serial', 'threaded']"
        )

    def test_async_from_the_environment_fails_at_collect(self):
        """``LAFP_EXECUTOR_STRATEGY=async`` left in an environment sets
        the option's default; the first collect fails cleanly."""
        snippet = (
            "import repro.lazyfatpandas.pandas as lfp\n"
            "from repro.core.session import Session\n"
            "with Session(backend='pandas'):\n"
            "    try:\n"
            "        lfp.DataFrame({'x': [1, 2]}).collect()\n"
            "    except ValueError as error:\n"
            "        print(error)\n"
        )
        env = dict(os.environ, LAFP_EXECUTOR_STRATEGY="async")
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, check=True, timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
        )
        assert out.stdout.strip() == (
            "unknown executor strategy 'async'; choose from "
            "['fused', 'process', 'serial', 'threaded']"
        )


class TestReadySetHelpers:
    def test_diamond_dependency_counts(self):
        src, left, right, join = _diamond()
        order = topological_order([join])
        counts = dependency_counts(order)
        assert counts[src.id] == 0
        assert counts[left.id] == 1
        assert counts[right.id] == 1
        assert counts[join.id] == 2
        assert [n for n in order if counts[n.id] == 0] == [src]

    def test_multi_root_ready_set(self):
        src_a, src_b, col_a, col_b = _multi_root()
        order = topological_order([col_a, col_b])
        counts = dependency_counts(order)
        assert {n.id for n in order if counts[n.id] == 0} == {
            src_a.id, src_b.id
        }
        # multi-root topological order still places deps first
        positions = {n.id: i for i, n in enumerate(order)}
        assert positions[src_a.id] < positions[col_a.id]
        assert positions[src_b.id] < positions[col_b.id]

    def test_shared_subexpression_counts(self):
        src, shared, s1, s2 = _shared_subexpression()
        order = topological_order([s1, s2])
        counts = dependency_counts(order)
        consumers = consumers_by_id(order)
        assert counts[shared.id] == 1
        assert {c.id for c in consumers[shared.id]} == {s1.id, s2.id}
        assert len(order) == 4  # shared node appears exactly once

    def test_cached_nodes_are_immediately_ready(self):
        from repro.frame import DataFrame

        src, left, right, join = _diamond()
        src.set_result(DataFrame({"x": [9]}))
        src.persist = True
        order = topological_order([join])
        counts = dependency_counts(order)
        assert counts[src.id] == 0

    def test_order_deps_count_as_dependencies(self):
        first = Node("print", args={"segments": []})
        second = Node("print", args={"segments": []}, order_deps=[first])
        order = topological_order([second])
        counts = dependency_counts(order)
        assert counts[second.id] == 1
        assert [n for n in order if counts[n.id] == 0] == [first]

    def test_binop_on_same_input_counts_one_dependency(self):
        src = Node("from_data", args={"data": {"x": [1.0]}})
        col = Node("getitem_column", inputs=[src], args={"column": "x"})
        twice = Node("binop", inputs=[col, col], args={"op": "+"})
        order = topological_order([twice])
        counts = dependency_counts(order)
        assert counts[twice.id] == 1  # distinct deps, not edge count

    @pytest.mark.parametrize("shape", sorted(GRAPH_ROOTS))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_driver_runs_the_ready_set_order(self, strategy, shape):
        """One slot, one order: each strategy starts nodes in the order
        a one-at-a-time drain of the ready set gives."""
        applied = []

        class RecordingBackend(PandasBackend):
            def apply(self, node, inputs):
                applied.append(node.id)
                return super().apply(node, inputs)

        roots = GRAPH_ROOTS[shape]()
        with _scheduler(strategy, RecordingBackend(),
                        {"executor.max_workers": 1}) as scheduler:
            scheduler.execute(roots)
        expected = [
            node.id for node in priority_topological_order(
                topological_order(roots), scheduler._priorities
            )
        ]
        assert [s.node_id for s in scheduler.last_stats.nodes] == expected
        if strategy != "process":  # its tasks run in the pool's workers
            assert applied == expected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_planning_state_belongs_to_one_run(self, strategy):
        """Estimates and priorities are assigned per run, never merged:
        a second run plans, orders and records only its own nodes."""
        with _scheduler(strategy, options={"executor.max_workers": 2}) \
                as scheduler:
            first = GRAPH_ROOTS["shared_subexpression"]()
            second = GRAPH_ROOTS["shared_subexpression"]()
            assert scheduler.execute(first) == [3, 2]
            first_stats = scheduler.last_stats
            # the first run left planning state behind
            assert scheduler._estimates and scheduler._priorities
            assert scheduler.execute(second) == [3, 2]
            ids = {node.id for node in topological_order(second)}
            assert set(scheduler._estimates) <= ids
            assert set(scheduler._priorities) <= ids
            assert scheduler.last_stats is not first_stats
            assert {s.node_id for s in scheduler.last_stats.nodes} == ids


class TestStrategyEquivalence:
    """serial, threaded and fused must be observationally identical."""

    def _pipeline(self, path):
        df = lfp.read_csv(path)
        df = df[df.x > 0]
        df["z"] = df.x * 2 + df.y
        shared = df[df.z > 10]
        total = shared.z.sum()
        by_tag = shared.groupby(["y"])["z"].sum()
        return total, by_tag

    def test_identical_results_across_strategies(self, numbers_csv):
        results = {}
        for strategy in STRATEGIES:
            with Session(backend="pandas",
                         options={"executor.strategy": strategy}) as s:
                total, by_tag = self._pipeline(numbers_csv)
                results[strategy] = (total.collect(), by_tag.collect())
                assert s.last_execution_stats.strategy == strategy
        base_total, base_series = results["serial"]
        for strategy in ("threaded", "fused", "process"):
            total, series = results[strategy]
            assert total == base_total
            assert _frames_equal(series, base_series)

    def test_option_context_switches_strategy_per_collect(self, numbers_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(numbers_csv)
            expected = df.x.sum().collect()
            for strategy in ("threaded", "fused"):
                with lfp.option_context("executor.strategy", strategy):
                    assert df.x.sum().collect() == expected
                assert (
                    session.last_execution_stats.strategy == strategy
                )

    def test_threaded_runs_parallel_on_dask_engine(self, numbers_csv):
        """No capability fallback: the Dask engine's plan is the task
        graph cut per partition, and the pool runs its partitions."""
        with Session(backend="dask",
                     options={"executor.strategy": "threaded",
                              "executor.max_workers": 3}) as s:
            df = lfp.scan_csv(numbers_csv, partition_bytes=64)
            expected = int((np.arange(120) - 17).sum())
            assert df.x.sum().collect() == expected
            stats = s.last_execution_stats
            assert stats.strategy == "threaded"
            assert s.last_optimize_report["partitions_cut"] > 0
            assert all(
                stat.worker.startswith("lafp-worker") for stat in stats.nodes
            )

    def test_threaded_runs_parallel_on_eager_engine(self, numbers_csv):
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded",
                              "executor.max_workers": 3}) as s:
            df = lfp.read_csv(numbers_csv)
            df.x.sum().collect()
            stats = s.last_execution_stats
            assert stats.strategy == "threaded"
            assert all(
                stat.worker.startswith("lafp-worker") for stat in stats.nodes
            )

    def test_lazy_prints_stay_in_program_order(self, capsys, numbers_csv):
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded",
                              "executor.max_workers": 4}):
            df = lfp.read_csv(numbers_csv)
            print("first:", int(df.x.max()))
            print("second:", int(df.y.max()))
            print("third:", int(df.x.min()))
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in out] == [
            "first", "second", "third"
        ]

    def test_threaded_propagates_node_errors(self):
        with Session(backend="pandas",
                     options={"executor.strategy": "threaded"}):
            df = lfp.DataFrame({"x": [1, 2, 3]})
            bad = df.x.map(lambda v: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                bad.collect()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_failed_collect_leaves_no_tracked_bytes(self, strategy, make_csv):
        """The one unwind: whatever a failed run computed is dropped, so
        no strategy leaves bytes (or stale cache hits) behind."""
        import gc

        path = make_csv({"a": np.arange(5000), "b": np.arange(5000) * 2},
                        "leak.csv")
        with Session(backend="pandas",
                     options={"executor.strategy": strategy,
                              "analysis.level": "off"}) as s:
            df = lfp.read_csv(path)
            df["c"] = df["a"] + df["b"]
            gc.collect()
            before = s.memory.live
            with pytest.raises(ValueError, match="boom"):
                df["c"].map(_raises).collect()
            gc.collect()
            assert s.memory.live == before
            assert s.last_execution_stats.strategy == strategy
            # nothing stale is served as a cache hit afterwards
            assert df["c"].sum().collect() == int(np.arange(5000).sum() * 3)
            assert s.last_execution_stats.cache_hits == 0

    def test_coordinator_only_completion_under_stress(self):
        """Workers only set their own node's result; release and
        readiness run on the coordinating thread without locks.  More
        workers than cores and a short switch interval: a lost update
        would leave a node unrun, a result unreleased, or a wrong sum."""
        import sys

        fan, rows = 48, 64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                src = Node("from_data",
                           args={"data": {"x": list(range(rows))}})
                col = Node("getitem_column", inputs=[src],
                           args={"column": "x"})
                leaves = [
                    Node("series_agg", inputs=[Node("identity", inputs=[col])],
                         args={"func": "sum"})
                    for _ in range(fan)
                ]
                with _scheduler("threaded", PandasBackend(),
                                {"executor.max_workers": 8}) as scheduler:
                    results = scheduler.execute(leaves)
                assert results == [sum(range(rows))] * fan
                assert scheduler.last_stats.nodes_executed == 2 + 2 * fan
                # every intermediate was released exactly once
                assert not src.computed and not col.computed
                assert all(not leaf.inputs[0].computed for leaf in leaves)
        finally:
            sys.setswitchinterval(interval)

    def test_failed_collect_does_not_repeat_prints(self, capsys):
        with Session(backend="pandas") as s:
            df = lfp.DataFrame({"x": [1, 2, 3]})
            s.add_print(Node("print", args={
                "segments": [{"kind": "literal", "value": "once"}],
            }))
            with pytest.raises(ZeroDivisionError):
                df.x.map(lambda v: 1 / 0).collect()
            s.flush()
        assert capsys.readouterr().out.count("once") == 1


class TestFusion:
    def _chain_nodes(self, depth):
        src = Node("from_data", args={"data": {"x": list(range(8))}})
        node = src
        for _ in range(depth):
            node = Node("identity", inputs=[node])
        agg = Node("frame_len", inputs=[node])
        return src, agg

    def test_linear_chain_fuses_into_one_task(self):
        src, agg = self._chain_nodes(6)
        order = topological_order([agg])
        tasks = fuse_linear_chains(order, {agg.id})
        assert len(tasks) == 1
        assert [n.id for n in tasks[0]] == [n.id for n in order]

    def test_diamond_branches_do_not_fuse_across_fan_points(self):
        src, left, right, join = _diamond()
        order = topological_order([join])
        tasks = fuse_linear_chains(order, {join.id})
        # src has two consumers, the join has two deps: nothing fuses.
        assert sorted(len(t) for t in tasks) == [1, 1, 1, 1]

    def test_fused_strategy_records_chains(self, make_csv):
        path = make_csv({"x": np.arange(50)}, "chain.csv")
        with Session(backend="pandas",
                     options={"executor.strategy": "fused"}) as s:
            df = lfp.read_csv(path)
            df = df[df.x > 1]
            df = df[df.x > 2]
            df = df[df.x > 3]
            df.x.sum().collect()
            stats = s.last_execution_stats
            assert stats.fused_chains >= 1
            assert stats.fused_nodes >= 2

    def test_fusion_never_skips_persisted_results(self, make_csv):
        path = make_csv({"x": np.arange(30)}, "persist.csv")
        with Session(backend="pandas",
                     options={"executor.strategy": "fused"}):
            df = lfp.read_csv(path)
            hot = df[df.x > 5]
            hot.persist()
            assert hot.x.sum().collect() == hot.x.sum().collect()


class TestExecutionStats:
    def test_per_node_stats_recorded(self, numbers_csv):
        with Session(backend="pandas") as s:
            df = lfp.read_csv(numbers_csv)
            df.x.sum().collect()
            stats = s.last_execution_stats
        assert stats.nodes_executed == len(stats.nodes) > 0
        ops = [stat.op for stat in stats.nodes]
        assert "scan" in ops
        for stat in stats.nodes:
            assert stat.wall_seconds >= 0.0
            assert stat.queue_wait_seconds >= 0.0
        assert stats.wall_seconds > 0.0

    def test_bytes_attributed_to_read(self, numbers_csv):
        with Session(backend="pandas") as s:
            df = lfp.read_csv(numbers_csv)
            df.x.sum().collect()
            stats = s.last_execution_stats
        read = next(st for st in stats.nodes if st.op == "scan")
        assert read.bytes_registered > 0

    def test_session_node_counter_accumulates(self, numbers_csv):
        with Session(backend="pandas") as s:
            df = lfp.read_csv(numbers_csv)
            df.x.sum().collect()
            first = s.stats["nodes_executed"]
            df.y.sum().collect()
            assert s.stats["nodes_executed"] > first

    def test_explain_stats_section(self, numbers_csv):
        with Session(backend="pandas",
                     options={"executor.strategy": "serial"}):
            df = lfp.read_csv(numbers_csv)
            text = df.explain(stats=True)
            assert "no execution recorded yet" in text
            df.x.sum().collect()
            text = df.explain(stats=True)
        assert "== last execution stats ==" in text
        assert "strategy=serial" in text
        assert "scan scan_csv " in text and "scan partitions read: 1/1" in text

    def test_stats_to_dict_is_json_ready(self, numbers_csv):
        import json

        with Session(backend="pandas",
                     options={"executor.strategy": "serial"}) as s:
            lfp.read_csv(numbers_csv).x.sum().collect()
            payload = s.last_execution_stats.to_dict()
        text = json.dumps(payload)
        assert '"strategy": "serial"' in text
        assert payload["nodes"][0]["op"]

    def test_cache_hits_counted(self, numbers_csv):
        with Session(backend="pandas") as s:
            df = lfp.read_csv(numbers_csv)
            hot = df[df.x > 0]
            hot.persist()
            hot.x.sum().collect(live=[hot])
            assert s.last_execution_stats.cache_hits >= 1


#: ``ExecutionStats.to_dict()``'s keys, in order: what ``bench/`` and the
#: workload runner's JSON read.  A new counter is appended, never
#: inserted.
STATS_KEYS = [
    "strategy", "max_workers", "wall_seconds",
    "nodes_executed", "cache_hits", "cache_misses", "cache_bytes_reused",
    "cache_evictions", "cache_inserted", "fused_chains", "fused_nodes",
    "throttle_waits", "bytes_registered", "bytes_released",
    "bytes_estimated", "partitions_read", "partitions_total",
    "shuffle_partitions", "bytes_spilled", "broadcast_joins", "bytes_read",
    "ranges_prefetched", "prefetch_hits", "io_retries", "cells_decoded",
    "spill_files", "static_order", "estimated_peak_bytes", "process_tasks",
    "process_fallbacks", "process_retries", "manager_peak_bytes", "nodes",
]

#: counts that follow from the plan alone: the same on every strategy
PLAN_COUNTS = ("nodes_executed", "partitions_read", "partitions_total",
               "cells_decoded", "shuffle_partitions", "broadcast_joins")


def _write_kv(path, rows):
    with open(path, "w") as f:
        f.write("k,v\n")
        f.writelines(f"{i % 7},{i}\n" for i in range(rows))
    return str(path)


class TestOneStatsModel:
    """One declared table of counters, one ``add``, written where the
    work happens into the run it belongs to."""

    def test_to_dict_keys_are_pinned(self):
        assert list(ExecutionStats(strategy="serial").to_dict()) == STATS_KEYS
        assert set(COUNTERS) < set(STATS_KEYS)
        assert all(COUNTERS.values()), "every counter carries its doc line"

    def test_node_stat_to_dict_is_asdict(self):
        import dataclasses

        stat = NodeStat(node_id=7, op="scan", label="scan_csv t.csv",
                        wall_seconds=0.25, queue_wait_seconds=0.5,
                        bytes_registered=4096, bytes_released=1024,
                        worker="ThreadPool-1", bytes_estimated=2048)
        assert stat.to_dict() == dataclasses.asdict(stat)
        assert list(stat.to_dict()) == list(dataclasses.asdict(stat))
        stats = ExecutionStats(strategy="threaded", nodes_executed=1,
                               nodes=[stat])
        expected = {f.name: getattr(stats, f.name)
                    for f in dataclasses.fields(stats)}
        expected["nodes"] = [dataclasses.asdict(stat)]
        assert stats.to_dict() == expected

    def test_add_rejects_an_undeclared_counter(self):
        stats = ExecutionStats(strategy="serial")
        with pytest.raises(TypeError, match="typo"):
            stats.add(typo=1)
        with pytest.raises(TypeError, match="wall_seconds"):
            stats.add(wall_seconds=1)  # a field, but not a counter
        assert not any(stats.counters().values())

    def test_count_outside_a_run_goes_nowhere(self):
        count(cells_decoded=5)  # no record bound: not an error
        stats = ExecutionStats(strategy="serial")
        with stats.bound():
            count(cells_decoded=5)
        assert stats.cells_decoded == 5

    def test_every_line_of_render_comes_from_the_declaration(self):
        stats = ExecutionStats(strategy="serial")
        assert counter_lines(stats.counters()) == []
        stats.add(**{name: 1 for name in COUNTERS})
        lines = counter_lines(stats.to_dict())
        assert lines == stats.render().splitlines()[1:]
        # every counter shows: on the line whose template names it, or
        # in the head (the three byte totals are the per-node lines' sums)
        text = stats.render()
        shown = set(re.findall(r"\{(\w+)\}", "".join(
            part for parts in stats_module._LINES.values() for part in parts)))
        assert shown <= set(COUNTERS)
        assert set(COUNTERS) - shown == {
            "nodes_executed", "cache_hits", "bytes_registered",
            "bytes_released", "bytes_estimated"}
        assert "io: 1B read, 1 ranges prefetched, 1 prefetch hits, 1 retries" \
            in lines
        assert counter_lines(stats.to_dict(), groups=("io",)) == [
            "io: 1B read, 1 ranges prefetched, 1 prefetch hits, 1 retries"]
        assert "nodes=1 cache_hits=1" in text

    def test_render_keeps_its_line_order(self):
        """``explain(stats=True)`` text is what it was before the lines
        came from a table: the process line follows the peak estimate,
        and retries are its suffix, shown only when there were any."""
        stats = ExecutionStats(strategy="process")
        stats.estimated_peak_bytes = 64
        stats.static_order = True
        stats.add(bytes_read=8, process_tasks=3, process_fallbacks=1)
        assert stats.render().splitlines()[1:] == [
            "io: 8B read, 0 ranges prefetched, 0 prefetch hits, 0 retries",
            "estimated peak live bytes: 64 (static order)",
            "process tasks: 3 shipped, 1 inline",
        ]
        stats.add(process_retries=2)
        assert stats.render().splitlines()[-1] == \
            "process tasks: 3 shipped, 1 inline, 2 retried"

    def test_plan_counts_agree_across_strategies(self, tmp_path):
        """The Motivation's plan: a shipped scan's cells used to stay in
        the worker (``cells_decoded`` 0 under ``process``)."""
        path = _write_kv(tmp_path / "kv.csv", 5000)
        seen = {}
        for strategy in STRATEGIES:
            with Session(backend="pandas",
                         options={"executor.strategy": strategy}) as s:
                df = lfp.read_csv(path)
                df[df.v > 10].groupby("k")["v"].sum().collect()
                stats = s.last_execution_stats.to_dict()
            assert stats["strategy"] == strategy
            seen[strategy] = {key: stats[key] for key in PLAN_COUNTS}
        assert seen["serial"]["cells_decoded"] == 10_000
        assert seen["serial"]["partitions_read"] == 1
        for strategy in STRATEGIES:
            assert seen[strategy] == seen["serial"], strategy

    def test_shuffle_counts_agree_across_strategies(self, tmp_path):
        """A shuffled merge and a broadcast one: written by the shuffle
        operators themselves, whichever seam ran them."""
        big = _write_kv(tmp_path / "big.csv", 1400)
        other = _write_kv(tmp_path / "other.csv", 700)
        small = _write_kv(tmp_path / "small.csv", 5)
        seen = {}
        for strategy in STRATEGIES:
            counts = []
            for right, threshold in ((other, 100), (small, 2000)):
                with Session(backend="pandas", options={
                    "executor.strategy": strategy,
                    "optimizer.shuffle_threshold_bytes": threshold,
                    "optimizer.shuffle_partitions": 4,
                }) as s:
                    left = lfp.scan_csv(big, partition_bytes=2048)
                    left.merge(lfp.scan_csv(right), on="k").collect()
                    stats = s.last_execution_stats.to_dict()
                counts.append({key: stats[key] for key in PLAN_COUNTS})
            seen[strategy] = counts
        shuffled, broadcast = seen["serial"]
        assert shuffled["shuffle_partitions"] == 8
        assert broadcast["broadcast_joins"] == 1
        assert shuffled["cells_decoded"] == 2 * (1400 + 700)
        for strategy in STRATEGIES:
            assert seen[strategy] == seen["serial"], strategy

    def test_overlapping_collects_each_count_their_own_cells(
        self, tmp_path, monkeypatch
    ):
        """Two collects on one session, each inside its read at the same
        moment: a before/after window around one run held the other's
        reads too (240 000 where each read 120 000)."""
        from repro.io.csv_source import CsvSource

        rows = 60_000
        paths = [_write_kv(tmp_path / f"{name}.csv", rows)
                 for name in ("first", "second")]
        both_reading = threading.Barrier(2)
        first_reported = threading.Event()
        original = CsvSource.read_partition

        def gated(self, *args, **kwargs):
            both_reading.wait(timeout=30)
            if self.path == paths[1]:
                assert first_reported.wait(timeout=30)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CsvSource, "read_partition", gated)
        reported = {}

        def collect(session, path):
            session.activate()
            try:
                lfp.read_csv(path).v.sum().collect()
                reported[path] = session.last_execution_stats.cells_decoded
            finally:
                session.deactivate()
                first_reported.set()

        # serial: each collect reads on the thread that called it
        with Session(backend="pandas",
                     options={"executor.strategy": "serial",
                              "optimizer.projection_pushdown": False}) as s:
            threads = [threading.Thread(target=collect, args=(s, path))
                       for path in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert reported == {path: rows * 2 for path in paths}

    def test_a_spill_after_the_write_phase_is_counted(
        self, tmp_path, monkeypatch
    ):
        """``bytes_spilled`` used to be read off the store when its
        ``shuffle_write`` node finished; what pressure pushed out later
        was never counted."""
        from repro.backends import shuffle_ops
        from repro.io.spill import spill_live_stores

        big = _write_kv(tmp_path / "big.csv", 1400)
        other = _write_kv(tmp_path / "other.csv", 700)
        original = shuffle_ops.drain_bucket
        forced = []

        def spill_then_read(stores, bucket):
            # this store's write phase is over, and (no budget) spilled
            # nothing; now every resident chunk of every store goes
            if not forced:
                assert [store.bytes_spilled for store in stores] == [0]
            forced.append(spill_live_stores(1 << 62))
            return original(stores, bucket)

        monkeypatch.setattr(shuffle_ops, "drain_bucket", spill_then_read)
        with Session(backend="pandas", options={
            "executor.strategy": "serial",
            "optimizer.shuffle_threshold_bytes": 100,
            "optimizer.shuffle_partitions": 4,
        }) as s:
            left = lfp.scan_csv(big, partition_bytes=2048)
            left.merge(lfp.scan_csv(other), on="k").collect()
            stats = s.last_execution_stats
        assert stats.bytes_spilled == sum(forced) > 0
        assert stats.spill_files == 2  # one per store

    def test_invariant_tool_rejects_a_second_stats_route(self):
        import ast
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "tools" / "check_invariants.py"
        spec = importlib.util.spec_from_file_location("check_invariants", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for second_route in (
            "class IOCounters:\n    pass",
            "from repro.io.fs import session_io_counters",
            "def run(state, stats):\n    state.flush_to_stats(stats)",
            "class Scheduler:\n    def _record_op_stats(self): ...",
            "class ExecutionStats:\n    def record_scan(self, n): ...",
        ):
            assert list(tool.check_one_stats_model(
                ast.parse(second_route), "io/fs.py")), second_route
        fine = "class ExecutionStats:\n    def add(self, **deltas): ..."
        assert not list(tool.check_one_stats_model(ast.parse(fine), "x.py"))
        assert tool.run() == []

    def test_a_worker_ships_its_account_back(self, numbers_csv):
        """Per-node bytes of a shipped chain are the worker's, not 0."""
        with Session(backend="pandas",
                     options={"executor.strategy": "process"}) as s:
            lfp.read_csv(numbers_csv).x.sum().collect()
            stats = s.last_execution_stats
        assert stats.process_tasks >= 1
        scan = next(st for st in stats.nodes if st.op == "scan")
        assert scan.worker == "process-pool" and scan.bytes_registered > 0
        assert stats.bytes_registered == sum(
            st.bytes_registered for st in stats.nodes)


def _peak_concurrency(cls, tmp_path, monkeypatch, budget) -> int:
    """Run four independent two-node chains on ``cls`` (three workers)
    and return how many ``Backend.apply`` calls were ever running at
    once.  Each call appends its interval to a log file, so calls in
    forked pool workers are seen too."""
    from repro.backends.base import Backend

    log = str(tmp_path / f"{cls.name}-{budget}.log")
    apply = Backend.apply

    def timed_apply(backend, node, inputs):
        start = time.monotonic()
        time.sleep(0.05)  # long enough for overlapping calls to meet
        try:
            return apply(backend, node, inputs)
        finally:
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{start!r} {time.monotonic()!r}\n".encode())
            os.close(fd)

    monkeypatch.setattr(Backend, "apply", timed_apply)
    roots = [
        Node("getitem_column", args={"column": "x"}, inputs=[
            Node("from_data", args={"data": {"x": [i, i + 1]}})])
        for i in range(4)
    ]
    with _scheduler(cls.name, PandasBackend(),
                    {"executor.max_workers": 3,
                     "memory.budget": budget}) as scheduler:
        scheduler.execute(roots)
    monkeypatch.undo()
    events = []
    with open(log) as f:
        for line in f:
            start, end = map(float, line.split())
            events += [(start, 1), (end, -1)]
    peak = running = 0
    for _when, delta in sorted(events):  # an end sorts before a start
        running += delta
        peak = max(peak, running)
    return peak


class TestMemoryAwareAdmission:
    # each case runs over the three parallel drivers in its body, not
    # through parametrize: the test ids are pinned by the floor list

    def test_budgeted_run_keeps_one_task_in_flight(self, tmp_path,
                                                    monkeypatch):
        for cls in PARALLEL_SCHEDULERS:
            assert _peak_concurrency(
                cls, tmp_path, monkeypatch, budget=1 << 30) == 1, cls.name

    def test_unbudgeted_run_fills_the_pool(self, tmp_path, monkeypatch):
        for cls in PARALLEL_SCHEDULERS:
            assert _peak_concurrency(
                cls, tmp_path, monkeypatch, budget=None) == 3, cls.name

    def test_invariant_tool_rejects_an_oom_repair(self):
        import ast
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "tools" / "check_invariants.py"
        spec = importlib.util.spec_from_file_location("check_invariants", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        catch = ("def drain_bucket(store, bucket):\n"
                 "    try:\n        return store.read_bucket(bucket)\n"
                 "    except SimulatedMemoryError:\n        pass\n")
        for repair in (
            "import time\ntime.sleep(0.005)",
            "from time import sleep",
            "def run(store):\n    try:\n        pass\n"
            "    except (ValueError, SimulatedMemoryError):\n        pass",
            "class Evaluator:\n    def _guarded(self, func): ...",
            "_OOM_RETRYABLE_OPS = frozenset({'merge'})",
            "value = self._apply_with_spill_retry(node, inputs)",
            "workers = self._resolve_auto_workers(peak)",
        ):
            for module in ("backends/dask_sim/compute.py",
                           "graph/scheduler/base.py"):
                assert list(tool.check_one_memory_rule(
                    ast.parse(repair), module)), (repair, module)
        # the one fallback, and code outside the two layers, pass
        assert list(tool.check_one_memory_rule(
            ast.parse(catch), "backends/dask_sim/compute.py"))
        assert not list(tool.check_one_memory_rule(
            ast.parse(catch), "backends/shuffle_ops.py"))
        assert not list(tool.check_one_memory_rule(
            ast.parse("import time\ntime.sleep(0.1)"), "io/fs.py"))
        assert tool.run() == []

    def test_never_throttles_an_empty_pool(self):
        for cls in PARALLEL_SCHEDULERS:
            with _scheduler(cls.name,
                            options={"memory.budget": 10}) as scheduler:
                scheduler.memory.register(10)
                assert not scheduler._throttled(0)

    def test_unbudgeted_manager_never_throttles(self):
        for cls in PARALLEL_SCHEDULERS:
            with _scheduler(cls.name) as scheduler:
                assert not scheduler._throttled(3)

    def test_threaded_completes_under_tight_budget(self, make_csv):
        path = make_csv({"x": np.arange(400), "y": np.arange(400) % 3},
                        "tight.csv")
        for cls in PARALLEL_SCHEDULERS:
            with Session(backend="pandas",
                         options={"executor.strategy": cls.name,
                                  "executor.max_workers": 4}) as s:
                with s.option_context("memory.budget", 1 << 20):
                    df = lfp.read_csv(path)
                    a = df.x.sum()
                    b = df.y.sum()
                    c = (df.x * 2).sum()
                    assert a.collect() + b.collect() + c.collect() > 0
                assert s.last_execution_stats.strategy == cls.name


class TestPerSessionBudgets:
    def test_concurrent_sessions_budget_independently(self):
        """Acceptance: one session's allocations never count against the
        other's, and each budget binds only its own session."""
        from repro.memory import TrackedBuffer

        results = {}
        gate_a = threading.Event()
        gate_b = threading.Event()

        def tenant_a():
            with Session(backend="pandas",
                         options={"memory.budget": 1000}) as session:
                held = TrackedBuffer(900)
                gate_a.set()
                gate_b.wait(timeout=5)
                results["a_live"] = session.memory.live
                # headroom is computed against A's own 1000-byte budget,
                # ignoring B's 400 live bytes.
                results["a_headroom"] = session.memory.headroom()
                held.release()

        def tenant_b():
            gate_a.wait(timeout=5)
            with Session(backend="pandas",
                         options={"memory.budget": 500}) as session:
                held = TrackedBuffer(400)
                results["b_live"] = session.memory.live
                try:
                    TrackedBuffer(200)
                    results["b_oom"] = False
                except SimulatedMemoryError:
                    results["b_oom"] = True
                held.release()
                gate_b.set()

        threads = [threading.Thread(target=tenant_a),
                   threading.Thread(target=tenant_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {
            "a_live": 900,
            "a_headroom": 100,
            "b_live": 400,
            "b_oom": True,
        }

    def test_root_session_owns_a_fresh_option_budgeted_manager(self):
        from repro.core.session import reset_root_session, root_session

        old = root_session().memory
        root = reset_root_session(options={"memory.budget": 4096})
        assert root.memory is not old
        assert root.memory.budget == 4096
        assert old.budget is None

    def test_session_buffers_do_not_touch_root_manager(self):
        from repro.core.session import root_session
        from repro.memory import TrackedBuffer

        root = root_session().memory
        before = root.live
        with Session(backend="pandas") as session:
            buffer = TrackedBuffer(777)
            assert session.memory.live == 777
            assert root.live == before
            buffer.release()

    def test_budget_option_writes_through_option_context(self):
        session = Session(backend="pandas")
        assert session.memory.budget is None
        with session.option_context("memory.budget", 2048):
            assert session.memory.budget == 2048
        # option_context budgets exactly its scope: the manager's prior
        # budget comes back once the override is gone
        assert session.memory.budget is None
        session.set_option("memory.budget", 4096)
        assert session.memory.budget == 4096

    def test_budget_comes_from_the_option_alone(self):
        session = Session(backend="pandas")
        session.memory.budget = 1 << 30  # a direct write does not stick
        assert session.memory.budget is None
