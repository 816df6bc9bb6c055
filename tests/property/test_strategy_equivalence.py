"""Randomized plan-equivalence fuzzer for the executor strategies.

Hypothesis generates small tables (CSV or JSONL on disk) and random
plans over them -- filters, projections, assigns, sorts, heads, merges
and groupby aggregations -- then collects each plan on every
(backend, strategy) pair in the grid and demands the result be
**bit-identical** (dtypes included) to the same backend's serial run.
A second pass forces the shuffle lowering, a third puts a row-local
chain between the scans and the lowered merge or group-by, and a fourth
layers a real memory budget on top so the spill machinery engages; none
may change a single bit.  On a mismatch the failing plan's ``explain()`` is
printed so the counterexample is actionable.

Aggregations stay on integer columns (exact partial sums), so the
partition-parallel paths cannot introduce float reassociation noise;
float columns exercise the row-wise paths (filters, arithmetic, sorts)
where bit-identity must hold everywhere.
"""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame
from repro.graph.scheduler import DEFAULT_EXECUTORS

BACKENDS = ["pandas", "modin", "dask"]
STRATEGIES = DEFAULT_EXECUTORS.names()
#: the strategies that overlap tasks when no budget holds them back
PARALLEL_STRATEGIES = ("threaded", "process")

#: the grid runs every pool-backed strategy; the tier-1 hang (a dropped
#: session's pool finalizer joining a thread from inside the collector)
#: surfaced here, so a wedge fails with stacks (tests/conftest.py)
pytestmark = pytest.mark.deadline(120)

_dirs = itertools.count()

# -- table generation -------------------------------------------------------

_keys = st.integers(min_value=0, max_value=5)
_ints = st.integers(min_value=-100, max_value=100)
_floats = st.integers(min_value=-400, max_value=400).map(lambda i: i / 4)
_words = st.sampled_from(["ab", "cd", "ef", "gh", ""])


@st.composite
def tables(draw, min_rows=1):
    n = draw(st.integers(min_value=min_rows, max_value=50))
    col = lambda elems: draw(st.lists(elems, min_size=n, max_size=n))
    return {
        "k": col(_keys),
        "v": col(_ints),
        "f": col(_floats),
        "w": col(_words),
    }


@st.composite
def right_tables(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    col = lambda elems: draw(st.lists(elems, min_size=n, max_size=n))
    return {"k": col(_keys), "r": col(_ints)}


# -- plan generation --------------------------------------------------------


#: integer inputs keep every one of these exact; ``std`` / ``nunique``
#: are holistic (the bucketed lowering, the Dask fallback)
_AGG_FUNCS = ["sum", "mean", "count", "min", "max", "size", "first",
              "std", "nunique"]
_HOWS = ["inner", "left", "right", "outer"]


@st.composite
def plans(draw, force_wide=False):
    """A random plan as data: (transform steps, terminal step).

    Column availability is tracked during generation so every step
    references live columns, whatever the projections before it did.
    """
    live = ["k", "v", "f", "w"]
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kinds = ["sort", "head"]
        if any(c != "w" for c in live):
            kinds.append("filter")
        if "v" in live and "k" in live:
            kinds.append("assign")
        if len(live) > 1:
            kinds.append("project")
        kind = draw(st.sampled_from(kinds))
        if kind == "filter":
            column = draw(st.sampled_from([c for c in live if c != "w"]))
            op = draw(st.sampled_from([">", "<=", "!="]))
            steps.append(("filter", column, op, draw(_ints)))
        elif kind == "assign":
            steps.append(("assign",))
            if "z" not in live:
                live = live + ["z"]
        elif kind == "project":
            keep = draw(
                st.lists(st.sampled_from(live), min_size=1,
                         max_size=len(live), unique=True)
            )
            live = [c for c in live if c in keep]
            steps.append(("project", live))
        elif kind == "sort":
            steps.append((
                "sort", draw(st.sampled_from(live)),
                draw(st.booleans()),
            ))
        elif kind == "head":
            steps.append(("head", draw(st.integers(1, 30))))
    terminals = ["frame"]
    int_cols = [c for c in live if c in ("k", "v", "z")]
    if int_cols:
        terminals.append("sum")
    if "k" in live and int_cols != ["k"]:
        terminals += ["groupby", "groupby_spec"]
    if "k" in live:
        terminals.append("merge")
    if force_wide:
        terminals = [t for t in terminals
                     if t in ("groupby", "groupby_spec", "merge")]
        if not terminals:
            terminals = ["frame"]
    terminal = draw(st.sampled_from(terminals))
    if terminal == "sum":
        terminal = ("sum", draw(st.sampled_from(int_cols)))
    elif terminal == "groupby":
        terminal = (
            "groupby",
            draw(st.sampled_from([c for c in int_cols if c != "k"])),
            draw(st.sampled_from(["sum", "mean", "count"])),
        )
    elif terminal == "merge":
        terminal = ("merge", draw(st.sampled_from(_HOWS)))
    elif terminal == "groupby_spec":
        # the forms the programs use (``programs.py``: ``.agg({"pm25":
        # "mean", "pm10": "max"})``): a dict spec, one function or a
        # list per column, ``as_index`` either way, or ``size()``
        funcs = st.sampled_from(_AGG_FUNCS)
        spec = draw(st.one_of(st.none(), st.dictionaries(
            st.sampled_from(int_cols),  # the key column included
            st.one_of(funcs, st.lists(funcs, min_size=1, max_size=3,
                                      unique=True)),
            min_size=1,
        )))
        terminal = ("groupby_spec", spec, draw(st.booleans()))
    else:
        terminal = (terminal,)
    return steps, terminal


@st.composite
def row_local_plans(draw):
    """A row-local chain -- a derived column, then filters and
    projections -- before a merge or a group-by: the scan does not feed
    the wide op directly, yet the chain pairs rows piece by piece."""
    live = ["k", "v", "f", "w", "z"]
    steps = [("assign",)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if len(live) == 1 or draw(st.booleans()):
            column = draw(st.sampled_from([c for c in live if c != "w"]))
            steps.append(("filter", column,
                          draw(st.sampled_from([">", "<=", "!="])),
                          draw(_ints)))
        else:
            keep = draw(st.lists(st.sampled_from(live[1:]), max_size=4,
                                 unique=True))
            live = [c for c in live if c == "k" or c in keep]
            steps.append(("project", live))
    int_cols = [c for c in live if c in ("v", "z")]
    if int_cols and draw(st.booleans()):
        funcs = [f for f in _AGG_FUNCS if f != "size"]
        terminal = ("groupby", draw(st.sampled_from(int_cols)),
                    draw(st.sampled_from(funcs)))
    else:
        terminal = ("merge", draw(st.sampled_from(_HOWS)))
    return steps, terminal


def _write_table(data, directory, name, fmt):
    path = os.path.join(directory, f"{name}.{fmt}")
    if fmt == "csv":
        DataFrame(data).to_csv(path)
    elif fmt == "lfc":
        from repro.io import write_columnar

        # tiny row groups: multi-chunk files even at fuzz sizes, so the
        # chunk-skip and per-group byte-range paths actually exercise
        write_columnar(DataFrame(data), path, row_group_rows=8)
    else:
        keys = list(data)
        with open(path, "w") as handle:
            for row in zip(*(data[k] for k in keys)):
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")
    return path


def _scan(fmt, path, partition_bytes):
    if fmt == "columnar":
        return lfp.scan_columnar(path)  # chunking comes from the footer
    scan = lfp.scan_csv if fmt == "csv" else lfp.scan_jsonl
    return scan(path, partition_bytes=partition_bytes)


def _table_ext(fmt):
    return {"csv": "csv", "jsonl": "jsonl", "columnar": "lfc"}[fmt]


def _build(plan, fmt, left_path, right_path, partition_bytes=512):
    frame = _scan(fmt, left_path, partition_bytes)
    steps, terminal = plan
    for step in steps:
        if step[0] == "filter":
            _, column, op, value = step
            series = frame[column]
            mask = {
                ">": series > value,
                "<=": series <= value,
                "!=": series != value,
            }[op]
            frame = frame[mask]
        elif step[0] == "assign":
            frame["z"] = frame["v"] * 2 + frame["k"]
        elif step[0] == "project":
            frame = frame[step[1]]
        elif step[0] == "sort":
            frame = frame.sort_values(step[1], ascending=step[2])
        elif step[0] == "head":
            frame = frame.head(step[1])
    if terminal[0] == "sum":
        return frame[terminal[1]].sum()
    if terminal[0] == "groupby":
        return frame.groupby(["k"])[terminal[1]].agg(terminal[2])
    if terminal[0] == "groupby_spec":
        _, spec, as_index = terminal
        grouped = frame.groupby(["k"], as_index=as_index)
        return grouped.size() if spec is None else grouped.agg(spec)
    if terminal[0] == "merge":
        right = _scan(fmt, right_path, 256)
        return frame.merge(right, on="k", how=terminal[1])
    return frame


# -- bit-identical comparison (dtype- and NaN-aware) ------------------------


def _columns_equal(ca, cb) -> bool:
    av, bv = ca.to_array(), cb.to_array()
    if ca.values.dtype != cb.values.dtype:
        return False
    if av.dtype.kind == "f":
        return bool(((av == bv) | ((av != av) & (bv != bv))).all())
    if len(av) == 0:
        return len(bv) == 0
    eq = av == bv
    if av.dtype == object:
        eq = eq | np.array(
            [x is None and y is None for x, y in zip(av, bv)],
            dtype=bool,
        )
    return bool(np.asarray(eq).all())


def _equal(a, b) -> bool:
    if type(a).__name__ == "Series":
        if type(b).__name__ != "Series" or a.name != b.name:
            return False
        if not np.array_equal(a.index.to_array(), b.index.to_array()):
            return False
        return _columns_equal(a.column, b.column)
    if type(a).__name__ == "DataFrame":
        if type(b).__name__ != "DataFrame":
            return False
        if list(a.columns) != list(b.columns) or len(a) != len(b):
            return False
        # a named index is data (the group keys); bare row labels are
        # not compared: a filter folded into the scan renumbers them
        if a.index.name != b.index.name or a.index.name is not None and (
            not np.array_equal(a.index.to_array(), b.index.to_array())
        ):
            return False
        return all(_columns_equal(a.column(c), b.column(c)) for c in a.columns)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return type(a) is type(b) and a == b


# -- the grid ---------------------------------------------------------------


def _collect_grid(plan, fmt, left, right, options, tmp_dir):
    """Collect the plan on every (backend, strategy) pair; every
    strategy must match its backend's serial result bit-for-bit.  A
    group-by and a merge are also the same on every backend (one
    aggregate plan, one join plan)."""
    across_backends = plan[1][0] in ("groupby", "groupby_spec", "merge")
    reference = None
    for backend in BACKENDS:
        baseline = None
        ordered = ["serial"] + [s for s in STRATEGIES if s != "serial"]
        for strategy in ordered:
            opts = {"executor.strategy": strategy,
                    "executor.max_workers": 2}
            opts.update(options)
            with Session(backend=backend, options=opts):
                out = _build(plan, fmt, left, right)
                result = out.collect()
            if strategy == "serial":
                baseline = result
                if reference is None:
                    reference = baseline
                assert not across_backends or _equal(baseline, reference), (
                    f"backend {backend!r} diverged from {BACKENDS[0]!r} "
                    f"with options {options}.\nplan: {plan}\n"
                    f"{baseline}\n{reference}"
                )
            elif not _equal(result, baseline):
                with Session(backend=backend, options=opts):
                    text = _build(plan, fmt, left, right).explain()
                raise AssertionError(
                    f"strategy {strategy!r} on backend {backend!r} "
                    f"diverged from serial with options {options}.\n"
                    f"plan: {plan}\nexplain():\n{text}"
                )


def _fresh_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    path = os.path.join(base, str(next(_dirs)))
    os.makedirs(path, exist_ok=True)
    return path


class TestStrategyEquivalence:
    @given(data=tables(), right=right_tables(), plan=plans(),
           fmt=st.sampled_from(["csv", "jsonl", "columnar"]))
    @settings(max_examples=12, deadline=None)
    def test_random_plans_identical_across_grid(
        self, tmp_path_factory, data, right, plan, fmt
    ):
        tmp_dir = _fresh_dir(tmp_path_factory)
        ext = _table_ext(fmt)
        left_path = _write_table(data, tmp_dir, "left", ext)
        right_path = _write_table(right, tmp_dir, "right", ext)
        _collect_grid(plan, fmt, left_path, right_path, {}, tmp_dir)

    @given(data=tables(), right=right_tables(),
           plan=plans(force_wide=True))
    @settings(max_examples=6, deadline=None)
    def test_forced_shuffle_identical_across_grid(
        self, tmp_path_factory, data, right, plan
    ):
        """The hash-partition lowering fires on every merge/groupby at
        threshold 100 -- the bucket pipelines must be invisible."""
        tmp_dir = _fresh_dir(tmp_path_factory)
        left_path = _write_table(data, tmp_dir, "left", "csv")
        right_path = _write_table(right, tmp_dir, "right", "csv")
        _collect_grid(
            plan, "csv", left_path, right_path,
            {"optimizer.shuffle_threshold_bytes": 100}, tmp_dir,
        )

    @given(data=tables(min_rows=20), right=right_tables(),
           plan=row_local_plans())
    @settings(max_examples=6, deadline=None)
    def test_row_local_chain_before_a_wide_op_is_lowered(
        self, tmp_path_factory, data, right, plan
    ):
        """Under a limit the eager engines cut the scans under a
        row-local chain too, not only a merge's or group-by's bare
        scans: the wide op is lowered, and every strategy returns the
        unlowered plan's bits."""
        tmp_dir = _fresh_dir(tmp_path_factory)
        left_path = _write_table(data, tmp_dir, "left", "csv")
        right_path = _write_table(right, tmp_dir, "right", "csv")
        with Session(backend="pandas"):
            reference = _build(plan, "csv", left_path, right_path).collect()
        # several pieces even at 20 rows, so a broadcast has a left side
        # to run piece by piece
        for backend in ("pandas", "modin"):
            for strategy in STRATEGIES:
                with Session(backend=backend, options={
                    "executor.strategy": strategy,
                    "executor.max_workers": 2,
                    "optimizer.shuffle_threshold_bytes": 100,
                }) as session:
                    result = _build(plan, "csv", left_path, right_path,
                                    partition_bytes=64).collect()
                    stats = session.last_execution_stats.to_dict()
                # a small right side is broadcast, not shuffled
                assert stats["shuffle_partitions"] or stats[
                    "broadcast_joins"] or any(
                    node["op"] == "partial_agg" for node in stats["nodes"]
                ), f"{backend}/{strategy} did not lower {plan}"
                assert _equal(result, reference), (
                    f"lowered run diverged: {backend}/{strategy}\n"
                    f"plan: {plan}"
                )

    @given(data=tables(), right=right_tables(), plan=plans(),
           fmt=st.sampled_from(["csv", "jsonl", "columnar"]))
    @settings(max_examples=8, deadline=None)
    def test_cache_warm_and_cold_identical_across_grid(
        self, tmp_path_factory, data, right, plan, fmt
    ):
        """The cross-session result cache (``optimizer.reuse``) must be
        invisible: with caching on, both the cold run (which inserts)
        and the warm run (which substitutes ``from_cached`` leaves) must
        match the same backend's reuse-off serial result bit-for-bit,
        on every strategy.  ``cache.min_cost: 0.0`` makes every
        fingerprintable node cache-worthy so the substitution path is
        maximally exercised."""
        from repro.cache.result_cache import result_cache

        tmp_dir = _fresh_dir(tmp_path_factory)
        ext = _table_ext(fmt)
        left_path = _write_table(data, tmp_dir, "left", ext)
        right_path = _write_table(right, tmp_dir, "right", ext)
        for backend in BACKENDS:
            result_cache().clear()
            with Session(backend=backend,
                         options={"executor.strategy": "serial"}):
                baseline = _build(plan, fmt, left_path, right_path).collect()
            for strategy in ["serial"] + [
                s for s in STRATEGIES if s != "serial"
            ]:
                opts = {
                    "executor.strategy": strategy,
                    "executor.max_workers": 2,
                    "optimizer.reuse": True,
                    "cache.min_cost": 0.0,
                }
                for leg in ("cold", "warm"):
                    with Session(backend=backend, options=opts):
                        result = _build(
                            plan, fmt, left_path, right_path
                        ).collect()
                    assert _equal(result, baseline), (
                        f"cached {leg} run diverged from uncached serial: "
                        f"{backend}/{strategy}\nplan: {plan}"
                    )
        result_cache().clear()

    @given(seed=st.integers(min_value=0, max_value=2**16),
           key_range=st.integers(min_value=30, max_value=60))
    @settings(max_examples=2, deadline=None)
    def test_forced_spill_identical_across_grid(
        self, tmp_path_factory, seed, key_range
    ):
        """A tight budget over a ~300KB join forces buckets to disk on
        every backend; spilled and resident runs must agree bit-for-bit.
        A budgeted parallel strategy runs one task at a time in the
        static order, so it spills exactly what ``serial`` spills, and
        holding ready tasks back shows up as throttle waits."""
        tmp_dir = _fresh_dir(tmp_path_factory)
        rng = np.random.RandomState(seed)
        n = 4000
        left_path = _write_table(
            {"k": rng.randint(0, key_range, n).tolist(),
             "v": list(range(n)),
             "s": [f"s{i % 7}" for i in range(n)]},
            tmp_dir, "left", "csv",
        )
        right_path = _write_table(
            {"k": list(range(1000, 1300)) + list(range(8)),
             "r": list(range(308))},
            tmp_dir, "right", "csv",
        )
        spill_dir = os.path.join(tmp_dir, "spill")
        plan = ([], ("merge", "inner"))
        for backend in BACKENDS:
            baseline = None
            spilled = {}
            ordered = ["serial"] + [s for s in STRATEGIES if s != "serial"]
            for strategy in ordered:
                with Session(backend=backend, options={
                    "executor.strategy": strategy,
                    "executor.max_workers": 2,
                    "memory.budget": 300_000,
                    "optimizer.shuffle_threshold_bytes": 100,
                    "memory.spill_dir": spill_dir,
                }) as session:
                    result = _build(
                        plan, "csv", left_path, right_path,
                        partition_bytes=2048,
                    ).collect()
                    stats = session.last_execution_stats.to_dict()
                if baseline is None:
                    baseline = result
                    assert stats["bytes_spilled"] > 0, (
                        f"{backend} never spilled -- the budget no "
                        "longer forces the spill path"
                    )
                else:
                    assert _equal(result, baseline), (
                        f"forced-spill run diverged: {backend}/{strategy}"
                    )
                spilled[strategy] = stats["bytes_spilled"]
                if strategy in PARALLEL_STRATEGIES:
                    assert stats["throttle_waits"] > 0, (
                        f"{backend}/{strategy} never held a task back")
            assert len(set(spilled.values())) == 1, (
                f"{backend} spill volume depends on the strategy: "
                f"{spilled}")
