"""The process executor strategy, and the static ordering pass.

The process strategy ships fused-chain tasks across the pickle seam,
so the suite covers the contract ends: what ships (and what falls back
inline), result-size charge-back to the parent session's manager,
worker-death fault tolerance (retry, then a clean ExecutionError with
budget and spill files reclaimed), and pool lifecycle on the session.
The pickle round-trip class is the regression net for the seam itself:
every op's args must keep pickling or the strategy silently degrades
to inline-only.  The memory-aware static ordering pass gets direct
unit coverage.
"""

import functools
import gc
import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.backends import PandasBackend
from repro.core.session import Session
from repro.graph import Node
from repro.graph.scheduler import (
    DEFAULT_EXECUTORS,
    ExecutionError,
)
from repro.graph.scheduler.base import ReadySet
from repro.graph.scheduler.order import (
    priority_topological_order,
    simulate_peak_bytes,
    static_priorities,
)
from repro.graph.scheduler.process import _run_task, create_worker_pool
from repro.io.predicate import Predicate
from repro.io.source import Partition

#: worker pools and forks: a wedged one must fail in a
#: minute with stacks rather than hang the run (see tests/conftest.py)
pytestmark = pytest.mark.deadline(60)


# ---------------------------------------------------------------------------
# Worker-side helpers: module-level so they pickle by reference (the
# fork-started workers share this module with the parent).
# ---------------------------------------------------------------------------


def _double(value):
    return value * 2


def _kill_worker_once(value, marker):
    """SIGKILL the worker the first time any element is mapped; the
    marker file makes the retry (in a fresh worker) succeed."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 1


def _kill_worker_always(value):
    os.kill(os.getpid(), signal.SIGKILL)
    return value  # pragma: no cover - never reached


@pytest.fixture
def numbers_csv(make_csv):
    n = 150
    return make_csv(
        {
            "x": np.arange(n) - 20,
            "y": np.arange(n) % 4,
            "s": np.array([f"w{i % 6}" for i in range(n)], dtype=object),
        },
        "numbers.csv",
    )


def _process_session(**options):
    opts = {"executor.strategy": "process", "executor.max_workers": 2}
    opts.update(options)
    return Session(backend="pandas", options=opts)


# ---------------------------------------------------------------------------
# Shipping and fallback.
# ---------------------------------------------------------------------------


class TestProcessShipping:
    def test_ships_fused_chain_and_matches_serial(self, numbers_csv):
        def pipeline():
            df = lfp.read_csv(numbers_csv)
            df = df[df.x > 0]
            df["z"] = df.x * 3 + df.y
            return df.z.sum()

        with Session(backend="pandas"):
            expected = pipeline().collect()
        with _process_session() as session:
            assert pipeline().collect() == expected
            stats = session.last_execution_stats
            assert stats.strategy == "process"
            assert stats.process_tasks >= 1
            assert any(
                stat.worker == "process-pool" for stat in stats.nodes
            )

    def test_named_function_map_ships(self, numbers_csv):
        with Session(backend="pandas"):
            expected = lfp.read_csv(numbers_csv).x.map(_double).sum().collect()
        with _process_session() as session:
            got = lfp.read_csv(numbers_csv).x.map(_double).sum().collect()
            assert got == expected
            assert session.last_execution_stats.process_tasks >= 1

    def test_lambda_map_falls_back_inline(self, numbers_csv):
        """Unpicklable args never break a plan: the chain runs inline."""
        with _process_session() as session:
            got = (
                lfp.read_csv(numbers_csv).x
                .map(lambda v: v * 2).sum().collect()
            )
            stats = session.last_execution_stats
        with Session(backend="pandas"):
            expected = (
                lfp.read_csv(numbers_csv).x
                .map(lambda v: v * 2).sum().collect()
            )
        assert got == expected
        assert stats.process_fallbacks >= 1

    def test_result_bytes_charged_to_parent_session(self, numbers_csv):
        """The charge-back half of the shipping contract: buffers of a
        worker-produced frame register with the parent's manager."""
        with _process_session() as session:
            frame = lfp.read_csv(numbers_csv)
            out = frame[frame.x > 0].collect()
            assert len(out) > 0
            assert session.last_execution_stats.process_tasks >= 1
            assert session.memory.live > 0
            shipped = [
                stat for stat in session.last_execution_stats.nodes
                if stat.worker == "process-pool" and stat.bytes_registered
            ]
            assert shipped, "no shipped node recorded registered bytes"

    def test_modin_backend_ships_through_pool(self, numbers_csv):
        """A Modin-engine plan ships to the pool like a pandas one."""
        with Session(backend="modin",
                     options={"executor.strategy": "process",
                              "executor.max_workers": 2}) as session:
            got = lfp.read_csv(numbers_csv).x.sum().collect()
            stats = session.last_execution_stats
        with Session(backend="pandas"):
            expected = lfp.read_csv(numbers_csv).x.sum().collect()
        assert got == expected
        assert stats.strategy == "process"
        assert stats.process_tasks >= 1

    def test_dask_engine_ships_partition_tasks(self, numbers_csv):
        """No serial fallback: the Dask plan is cut per partition and
        each partition's chain ships to the pool like any task."""
        expected = int((np.arange(150) - 20).sum())
        with Session(backend="dask",
                     options={"executor.strategy": "process"}) as session:
            got = lfp.scan_csv(numbers_csv, partition_bytes=256).x.sum()
            assert got.collect() == expected
            stats = session.last_execution_stats
            assert stats.strategy == "process"
            assert stats.process_tasks > 1

    def test_print_side_effect_runs_on_parent_stdout(
        self, numbers_csv, capsys
    ):
        with _process_session():
            frame = lfp.read_csv(numbers_csv)
            print(frame.x.sum())
            lfp.flush()
        assert capsys.readouterr().out.strip() != ""


# ---------------------------------------------------------------------------
# Fault tolerance: dying workers.
# ---------------------------------------------------------------------------


class TestProcessFaults:
    def test_worker_death_retries_and_succeeds(self, numbers_csv, tmp_path):
        marker = str(tmp_path / "died-once")
        kill_once = functools.partial(_kill_worker_once, marker=marker)
        with _process_session() as session:
            got = lfp.read_csv(numbers_csv).x.map(kill_once).sum().collect()
            stats = session.last_execution_stats
        assert os.path.exists(marker)
        assert stats.process_retries >= 1
        with Session(backend="pandas"):
            expected = (
                lfp.read_csv(numbers_csv).x.map(lambda v: v + 1)
                .sum().collect()
            )
        assert got == expected

    def test_persistent_worker_death_raises_clean_error(self, numbers_csv):
        with _process_session() as session:
            with pytest.raises(ExecutionError, match="worker died"):
                lfp.read_csv(numbers_csv).x.map(
                    _kill_worker_always
                ).sum().collect()
            # budget reclaimed: every result of the failed run dropped
            gc.collect()
            assert session.memory.live == 0
            # the broken pool was discarded, not cached
            assert session._process_pool is None
            # the session recovers: the next collect builds a fresh pool
            assert lfp.read_csv(numbers_csv).x.map(_double).sum().collect() \
                == lfp.read_csv(numbers_csv).x.sum().collect() * 2

    def test_worker_death_leaves_no_spill_files(
        self, make_csv, tmp_path
    ):
        """ExecutionError cleanup drops shuffle stores too, so their
        finalizers delete every spill file."""
        n = 4000
        rng = np.random.RandomState(0)
        left = make_csv(
            {"k": rng.randint(0, 40, n), "v": np.arange(n)}, "left.csv"
        )
        right = make_csv(
            {"k": np.arange(8), "w": np.arange(8) * 10}, "right.csv"
        )
        spill_dir = tmp_path / "spill"
        with _process_session(**{
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
            "memory.spill_dir": str(spill_dir),
        }) as session:
            with pytest.raises(ExecutionError):
                merged = lfp.scan_csv(left, partition_bytes=2048).merge(
                    lfp.scan_csv(right, partition_bytes=512), on="k"
                )
                merged["v"].map(_kill_worker_always).sum().collect()
            gc.collect()
            assert session.memory.live == 0
        gc.collect()
        leftover = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(spill_dir)
            for name in names
        ]
        assert leftover == []

    def test_udf_after_broadcast_merge_ships_to_the_pool(self, make_csv):
        """A right side small enough to broadcast: each left piece is
        merged on its own, and the UDF after the merge must ship (here:
        die in a worker, not kill the test)."""
        n = 4000
        rng = np.random.RandomState(0)
        left = make_csv(
            {"k": rng.randint(0, 40, n), "v": np.arange(n)}, "left.csv"
        )
        right = make_csv(
            {"k": np.arange(8), "w": np.arange(8) * 10}, "right.csv"
        )
        with _process_session(**{
            "memory.budget": 150_000,
            "optimizer.shuffle_threshold_bytes": 100,
        }) as session:
            with pytest.raises(ExecutionError, match="worker died"):
                merged = lfp.scan_csv(left, partition_bytes=2048).merge(
                    lfp.scan_csv(right, partition_bytes=512, usecols=["k"]),
                    on="k",
                )
                merged["v"].map(_kill_worker_always).sum().collect()
            gc.collect()
            assert session.memory.live == 0

    def test_plan_errors_keep_their_type(self, numbers_csv):
        """A worker-raised *plan* error is not an infrastructure
        failure: it propagates with its original type, like serial."""
        with _process_session():
            frame = lfp.read_csv(numbers_csv)
            with pytest.raises(KeyError):
                frame["missing"].sum().collect()


# ---------------------------------------------------------------------------
# Pool lifecycle on the session.
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_pool_cached_across_collects_and_closed(self, numbers_csv):
        with _process_session() as session:
            lfp.read_csv(numbers_csv).x.sum().collect()
            pool = session._process_pool
            assert pool is not None
            lfp.read_csv(numbers_csv).y.sum().collect()
            assert session._process_pool is pool
            session.close()
            assert session._process_pool is None
            with pytest.raises(RuntimeError):
                pool.submit(_double, 1)
            # close() is idempotent and the session stays usable
            session.close()
            assert lfp.read_csv(numbers_csv).x.sum().collect() is not None

    def test_pool_rebuilt_when_workers_change(self, numbers_csv):
        with _process_session() as session:
            lfp.read_csv(numbers_csv).x.sum().collect()
            pool = session.process_pool()
            with lfp.option_context("executor.max_workers", 3):
                assert session.process_pool() is not pool

    def test_collected_session_never_waits_for_its_pool(self):
        """The garbage collector runs a dropped session's pool finalizer
        at an arbitrary allocation -- the tier-1 hang was one inside
        ``threading._maintain_shutdown_locks``, whose lock the join of
        the pool's manager thread then wanted again.  The finalizer
        signals the pool and returns; only ``close()`` waits."""
        import multiprocessing
        import time

        session = _process_session()
        pool = session.process_pool()
        busy = pool.submit(time.sleep, 30)
        while not busy.running():
            time.sleep(0.01)
        start = time.monotonic()
        del session
        gc.collect()
        try:
            assert time.monotonic() - start < 5
            with pytest.raises(RuntimeError):  # it was shut down
                pool.submit(_double, 1)
        finally:
            for child in multiprocessing.active_children():
                child.kill()

    def test_worker_pool_runs_raw_task(self):
        """The worker entry point itself: steps replay against the
        worker's backend and the final result pickles back, beside the
        worker's account of the work (counters, bytes per step)."""
        pool = create_worker_pool(1, PandasBackend)
        try:
            steps = [
                ("from_data", {"data": {"x": [2, 3]}}, []),
                ("getitem_column", {"column": "x"}, [("step", 0)]),
                ("series_agg", {"func": "sum"}, [("step", 1)]),
            ]
            payload = pickle.dumps((steps, []))
            blob, counts, step_bytes = pool.submit(
                _run_task, payload).result(timeout=60)
            assert pickle.loads(blob) == 5
            assert counts == {}  # nothing these steps do is counted
            assert len(step_bytes) == 3 and step_bytes[0][0] > 0
        finally:
            pool.shutdown()

    def test_start_method_env_var_reaches_every_pool(self):
        """``LAFP_PROCESS_START_METHOD=spawn`` (the CI spawn leg's
        switch) makes the session's pool spawn workers -- the leg cannot
        silently fall back to fork.  No task is submitted, so no worker
        starts."""
        snippet = (
            "from repro.core.session import Session\n"
            "from repro.graph.scheduler import process\n"
            "pool = Session(backend='pandas').process_pool(1)\n"
            "print(process.START_METHOD,\n"
            "      pool._mp_context.get_start_method())\n"
            "pool.shutdown()\n"
        )
        env = dict(os.environ, LAFP_PROCESS_START_METHOD="spawn")
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, check=True, timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
        )
        assert out.stdout.split() == ["spawn"] * 2


# ---------------------------------------------------------------------------
# The pickle seam: every registered op's args must round-trip.
# ---------------------------------------------------------------------------


class TestPickleSeam:
    def _walk(self, node, seen, out):
        if node.id in seen:
            return
        seen.add(node.id)
        out.append(node)
        for dep in node.all_deps():
            self._walk(dep, seen, out)

    def test_plan_args_round_trip(self, numbers_csv):
        """Representative plans covering the shippable op surface:
        pickling a node's (op, args) must reconstruct equal args."""
        with Session(backend="pandas"):
            df = lfp.scan_csv(numbers_csv, partition_bytes=512)
            df = df[(df.x > 0) & (df.y != 2)]
            df["z"] = df.x * 2 + df.y
            plans = [
                df.z.sum(),
                df.sort_values("z").head(5),
                df.groupby(["y"])["z"].mean(),
                df.merge(lfp.scan_csv(numbers_csv), on="y"),
                df[["x", "z"]].describe(),
                df.x.map(_double).astype("float64"),
            ]
            nodes, seen = [], set()
            for plan in plans:
                self._walk(plan._node, seen, nodes)
        assert len(nodes) > 15
        for node in nodes:
            blob = pickle.dumps((node.op, node.args),
                                protocol=pickle.HIGHEST_PROTOCOL)
            op, args = pickle.loads(blob)
            assert op == node.op
            assert set(args) == set(node.args)

    def test_partition_round_trips(self):
        part = Partition(
            index=3, path="/data/part-3.csv", byte_range=(1024, 4096),
            key_values={"region": "eu"}, est_rows=100, est_bytes=2048,
            min_values={"x": -5.0}, max_values={"x": 99.0},
        )
        clone = pickle.loads(pickle.dumps(part))
        assert clone == part

    def test_predicate_conjuncts_round_trip(self):
        pred = Predicate([
            {"column": "x", "op": ">", "value": 3},
            {"column": "s", "op": "isin", "value": ["a", "b"]},
            {"column": "y", "op": "between", "value": [0, 10]},
        ])
        clone = pickle.loads(pickle.dumps(pred.to_arg()))
        assert clone == pred.to_arg()


# ---------------------------------------------------------------------------
# Memory-aware static ordering.
# ---------------------------------------------------------------------------


class TestStaticOrder:
    def _reduction_dag(self, branches=4):
        """N independent source -> aggregate branches into one concat.
        Running all the big sources before any aggregate (level order)
        keeps every source live at once; finishing each branch first
        (what the static order picks) holds one source plus the small
        aggregates.  Estimates: source 100 bytes, aggregate 10."""
        from repro.graph.taskgraph import topological_order

        estimates = {}
        sources, aggs = [], []
        for index in range(branches):
            src = Node("from_data",
                       args={"data": {f"c{index}": list(range(8))}})
            agg = Node("identity", inputs=[src])
            sources.append(src)
            aggs.append(agg)
        join = Node("concat", inputs=aggs)
        order = topological_order([join])
        for src in sources:
            estimates[src.id] = 100
        for agg in aggs:
            estimates[agg.id] = 10
        estimates[join.id] = 10
        return order, estimates, join, sources, aggs

    def test_priorities_cover_graph_and_respect_deps(self):
        order, estimates, join, _, _ = self._reduction_dag()
        priorities = static_priorities(order, estimates)
        assert set(priorities) == {node.id for node in order}
        ordered = priority_topological_order(order, priorities)
        seen = set()
        for node in ordered:
            assert all(dep.id in seen for dep in node.all_deps())
            seen.add(node.id)
        assert {n.id for n in ordered} == {n.id for n in order}

    def test_static_order_reduces_simulated_peak(self):
        order, estimates, join, sources, aggs = self._reduction_dag()
        root_ids = {join.id}
        # pessimal but valid baseline: level order (all sources, then
        # all aggregates) -- every 100-byte source is live at once
        level_order = sources + aggs + [join]
        baseline = simulate_peak_bytes(level_order, estimates, root_ids)
        priorities = static_priorities(order, estimates)
        ordered = priority_topological_order(order, priorities)
        optimized = simulate_peak_bytes(ordered, estimates, root_ids)
        assert baseline >= 400  # 4 sources resident together
        assert optimized <= 150  # one source + accumulated aggregates

    @pytest.mark.parametrize("branches", [1, 4, 7])
    @pytest.mark.parametrize("with_estimates", [True, False])
    def test_simulated_peak_is_the_drained_peak(self, branches,
                                                with_estimates):
        """The simulation and the run apply one release rule: draining
        a ReadySet serially keeps exactly the simulated bytes live."""
        order, estimates, join, _, _ = self._reduction_dag(branches)
        priorities = static_priorities(
            order, estimates if with_estimates else {}
        )
        ready = ReadySet([[node] for node in order], priorities, {join.id})
        peak = 0
        while ready.remaining:
            task, _ = ready.pop()
            task[0].set_result(object())
            peak = max(peak, sum(
                estimates[node.id] for node in order if node.computed
            ))
            ready.release(task[0])
            ready.complete(task)
        assert peak == simulate_peak_bytes(
            priority_topological_order(order, priorities),
            estimates, {join.id},
        )
        assert [node.computed for node in order] == [
            node is join for node in order
        ]

    def test_missing_estimates_degrade_to_depth_first(self):
        order, _, join, _, _ = self._reduction_dag()
        priorities = static_priorities(order, {})
        ordered = priority_topological_order(order, priorities)
        # depth-first still finishes one branch before the other:
        # the branch positions must not interleave
        branch_of = {}
        for node in ordered[:-1]:
            dep = node.inputs[0].id if node.inputs else node.id
            branch_of[node.id] = branch_of.get(dep, node.id)
        positions = {}
        for index, node in enumerate(ordered[:-1]):
            positions.setdefault(branch_of[node.id], []).append(index)
        spans = sorted(
            (min(ps), max(ps)) for ps in positions.values()
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end < start

    def test_stats_record_estimated_peak(self, numbers_csv):
        with Session(backend="pandas") as session:
            lfp.read_csv(numbers_csv).x.sum().collect()
            stats = session.last_execution_stats
            assert stats.static_order is True
            assert stats.estimated_peak_bytes is not None
            assert stats.estimated_peak_bytes > 0
            assert "estimated peak live bytes" in stats.render()

    def test_static_order_option_toggles(self, numbers_csv):
        with Session(backend="pandas",
                     options={"executor.static_order": False}) as session:
            lfp.read_csv(numbers_csv).x.sum().collect()
            assert session.last_execution_stats.static_order is False

    def test_all_strategies_accept_static_order(self, numbers_csv):
        expected = None
        for strategy in DEFAULT_EXECUTORS.names():
            with Session(backend="pandas",
                         options={"executor.strategy": strategy}):
                got = lfp.read_csv(numbers_csv).x.sum().collect()
            if expected is None:
                expected = got
            assert got == expected


def _wait_forever(_):
    import threading

    threading.Event().wait()


class TestDeadline:
    @pytest.mark.deadline(2)
    def test_stuck_workers_are_killed_with_the_test(self):
        """What the fork-pool hang looked like: the parent waits on a
        worker that never answers.  The deadline must also free the
        pool, or its shutdown (and the interpreter's exit hook) waits on
        the same worker."""
        import multiprocessing
        import time
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("fork"))
        try:
            with pytest.raises((TimeoutError, BrokenProcessPool)):
                list(pool.map(_wait_forever, range(2)))
            # poll rather than join-then-look: the pool's manager thread
            # reaps the killed workers too, and a child it has waited on
            # but not yet recorded still reads as alive for a moment
            gone_by = time.monotonic() + 5
            while (multiprocessing.active_children()
                   and time.monotonic() < gone_by):
                time.sleep(0.01)
            assert not multiprocessing.active_children()
        finally:
            pool.shutdown(wait=True)

    @pytest.mark.deadline(1)
    def test_a_hung_wait_fails_with_stacks(self, capfd):
        import threading
        import time

        start = time.monotonic()
        with pytest.raises(TimeoutError, match="1 s deadline"):
            threading.Event().wait(30)  # what a deadlocked pool looks like
        assert time.monotonic() - start < 10
        assert "most recent call first" in capfd.readouterr().err
