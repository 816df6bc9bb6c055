"""Properties of the optimizer's rewriting passes on random chains.

Hypothesis builds chains of filter / setitem / drop / rename / merge
steps over a small table and checks two things the fixed examples
cannot:

- every ``optimizer.*`` flag, switched off on its own, leaves the
  collected result bit-identical on every backend, row labels included
  (the equivalence fuzzer next door varies strategies and formats; this
  is its optimizer axis);
- predicate pushdown is a bounded, idempotent rewrite: a filter hops
  each op of its chain at most once, a swap adds at most one node (a
  pushed disjunction adds its own filter and mask once besides), and a
  second run finds nothing left to do; and no pass changes the op or
  args of a node it is handed, the reuse pass included.

A chain may stop on the way up to ``collect()`` or ``persist()`` the
frame as it stands and then keep building on it: the steps above such a
"hold" are planned over a value the graph already keeps, which no pass
may look, or move an operator, beneath.  A "pinned" step holds a
*series* and assigns it as a column: a later filter must stay above
that setitem, because the held value cannot be re-rooted.

A chain may also sort and keep the first rows (a top-n when every key
sorts one way), and may branch off the frame as it stands a filtered
aggregate of other columns, which the frame's collect prints: the frame
then feeds two readers that need different columns, so projection
pushdown narrows the edges into its row copies.  A "fork" branches so
and goes on filtered differently: with two filters its only readers,
the frame takes the multi-parent rule, and their disjunction is pushed
below it.

A chain ends in the frame itself, a column subset, or a
``groupby(["k"])[...].sum()``: the last two leave columns unread, so
projection pushdown narrows the scans -- through the merge too, whose
right table shares the non-key column ``v`` with the left (its ``_x`` /
``_y`` labels must not change when a side narrows).

The chain's leaf is one more input: ``pd.read_csv``, ``pd.scan_csv``,
or a ``scan_csv`` cut into several partitions.  The first two are one
leaf under two names, so every chain must explain and fingerprint the
same from either.
"""

import contextlib
import copy
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.lazyfatpandas.pandas as lfp
from repro.cache.fingerprint import fingerprint_node
from repro.core.optimizer import optimize, push_down_predicates
from repro.core.lazyframe import LazyFrame
from repro.core.optimizer.predicate_pushdown import (
    _DISJUNCTION, _above, fold_predicates_into_scans,
)
from repro.core.session import Session
from repro.graph import collect_subgraph
from repro.lazyfatpandas.func import print as lazy_print

from test_strategy_equivalence import (
    BACKENDS, _equal, _fresh_dir, _ints, _write_table, right_tables, tables,
)

pytestmark = pytest.mark.deadline(120)

FLAGS = [
    "optimizer.predicate_pushdown",
    "optimizer.common_subexpression",
    "optimizer.projection_pushdown",
    "optimizer.metadata",
    "optimizer.partition_pruning",
    "optimizer.shuffle",
]

_values = st.integers(min_value=-100, max_value=100)


@st.composite
def shared_right_tables(draw):
    """The merge's right table, with a non-key ``v`` beside the left's."""
    right = draw(right_tables())
    n = len(right["k"])
    right["v"] = draw(st.lists(_ints, min_size=n, max_size=n))
    return right


@st.composite
def chains(draw):
    """A random chain as data; tracks live columns so every step reads
    columns that exist, whatever the drops and renames before it did."""
    numeric = ["k", "v", "f"]  # "w" (strings) rides along unfiltered
    merged = False
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kinds = ["filter", "filter", "derive", "overwrite", "running",
                 "peaks", "tap", "hold", "pinned", "top"]
        droppable = [c for c in numeric if c != "k"]
        if len(droppable) > 1:
            kinds += ["drop", "rename"]
        if droppable:
            kinds += ["branch", "fork"]
        if not merged and "k" in numeric:
            kinds.append("merge")
        kind = draw(st.sampled_from(kinds))
        if kind == "filter":
            steps.append(("filter", draw(st.sampled_from(numeric)),
                          draw(st.sampled_from([">", "<=", "!="])),
                          draw(_values)))
        elif kind == "derive":
            # a new column from two old ones (a setitem filters pass)
            a, b = draw(st.sampled_from(numeric)), draw(
                st.sampled_from(numeric))
            name = f"d{len(steps)}"
            steps.append(("setitem", name, a, b))
            numeric = numeric + [name]
        elif kind == "pinned":
            # the same column, persisted first: a held leaf on the side
            a, b = draw(st.sampled_from(numeric)), draw(
                st.sampled_from(numeric))
            name = f"d{len(steps)}"
            steps.append(("pinned", name, a, b))
            numeric = numeric + [name]
        elif kind == "running":
            # not elementwise: no filter may pass it, nor enter a run
            # of filters that sits on it
            name = f"d{len(steps)}"
            steps.append(("running", name, draw(st.sampled_from(numeric))))
            numeric = numeric + [name]
        elif kind == "peaks":
            # a filter whose mask is not elementwise: nothing hops it
            steps.append(("peaks", draw(st.sampled_from(numeric)),
                          draw(_values)))
        elif kind == "tap":
            # the frame as it stands is read a second time, unfiltered
            steps.append(("tap",))
        elif kind == "branch":
            # ... or filtered and aggregated over other columns: the
            # frame feeds two branches that read different columns
            steps.append(("branch", draw(st.sampled_from(droppable)),
                          draw(_values), draw(st.sampled_from(droppable))))
        elif kind == "fork":
            # ... and the chain goes on under a different filter
            steps.append(("fork", draw(st.sampled_from(droppable)),
                          draw(_values), draw(st.sampled_from(droppable)),
                          draw(st.sampled_from(numeric)), draw(_values)))
        elif kind == "top":
            # a sort and a head: a top-n when every key sorts one way
            by = draw(st.lists(st.sampled_from(numeric), min_size=1,
                               max_size=2, unique=True))
            ascending = draw(st.sampled_from(
                [True, False] + ([[True, False]] if len(by) > 1 else [])))
            steps.append(("top", by, ascending,
                          draw(st.integers(min_value=0, max_value=12))))
        elif kind == "hold":
            # the frame as it stands is computed now and built on after
            steps.append(("hold", draw(st.sampled_from(
                ["collect", "persist"]))))
        elif kind == "overwrite":
            # rewrites a column in place: a filter reading it must stay
            column = draw(st.sampled_from(droppable))
            steps.append(("setitem", column, column, column))
        elif kind == "drop":
            column = draw(st.sampled_from(droppable))
            numeric = [c for c in numeric if c != column]
            steps.append(("drop", column))
        elif kind == "rename":
            column = draw(st.sampled_from(droppable))
            name = f"n{len(steps)}"
            numeric = [name if c == column else c for c in numeric]
            steps.append(("rename", column, name))
        else:
            merged = True
            # a "v" still on the left meets the right's: both suffixed
            numeric = [c for c in numeric if c != "v"] + (
                ["v_x", "v_y"] if "v" in numeric else ["v"]) + ["r"]
            steps.append(("merge",))
    ending = draw(st.sampled_from(["whole", "subset", "groupby"]))
    if ending != "whole":
        values = [c for c in numeric if c != "k"]
        picked = draw(st.lists(st.sampled_from(values), min_size=1,
                               max_size=len(values), unique=True))
        steps.append((ending, picked))
    return steps


#: how a chain spells its leaf; "split" cuts the file into partitions
LEAVES = {
    "read": lfp.read_csv,
    "scan": lfp.scan_csv,
    "split": lambda path: lfp.scan_csv(path, partition_bytes=96),
}


def _build(steps, leaf, left, right):
    """The chain's frame, and the frames tapped on the way up."""
    read = LEAVES[leaf]
    frame = read(left)
    taps = []
    for step in steps:
        if step[0] == "filter":
            _, column, op, value = step
            series = frame[column]
            frame = frame[{">": series > value, "<=": series <= value,
                           "!=": series != value}[op]]
        elif step[0] == "setitem":
            _, name, a, b = step
            frame[name] = frame[a] + frame[b]
        elif step[0] == "pinned":
            _, name, a, b = step
            frame[name] = (frame[a] + frame[b]).persist()
        elif step[0] == "running":
            frame[step[1]] = frame[step[2]].cummax()
        elif step[0] == "peaks":
            frame = frame[frame[step[1]].cummax() > step[2]]
        elif step[0] == "tap":
            taps.append(frame)
        elif step[0] == "branch":
            _, column, value, summed = step
            taps.append(frame[frame[column] > value].groupby(["k"])[
                summed].sum())
        elif step[0] == "fork":
            _, column, value, summed, other, bound = step
            taps.append(frame[frame[column] > value].groupby(["k"])[
                summed].sum())
            frame = frame[frame[other] <= bound]
        elif step[0] == "top":
            _, by, ascending, n = step
            frame = frame.sort_values(by, ascending=ascending).head(n)
        elif step[0] == "hold":
            getattr(frame, step[1])()
        elif step[0] == "drop":
            frame = frame.drop(columns=[step[1]])
        elif step[0] == "rename":
            frame = frame.rename(columns={step[1]: step[2]})
        elif step[0] == "subset":
            frame = frame[step[1]]
        elif step[0] == "groupby":
            frame = frame.groupby(["k"])[step[1]].sum()
        else:
            frame = frame.merge(read(right), on="k", how="inner")
    return frame, taps


def _collect(frame, taps):
    """One plan that reads the frame and every tap: a lazy print per
    tap -- of a tapped frame's ``k`` sum, of a branch's aggregate --
    which the frame's collect runs ("k" is never dropped or renamed, and
    sums of integers and quarters do not depend on the partitioning)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for tap in taps:
            lazy_print(tap.k.sum() if isinstance(tap, LazyFrame) else tap)
        return frame.collect(), printed.getvalue()


def _same_labels(a, b) -> bool:
    return np.array_equal(a.index.to_array(), b.index.to_array())


class TestOptimizerFlagsAreInvisible:
    @given(data=tables(), right=shared_right_tables(), steps=chains(),
           leaf=st.sampled_from(sorted(LEAVES)))
    @settings(max_examples=15, deadline=None)
    def test_each_flag_off_is_bit_identical_on_every_backend(
        self, tmp_path_factory, data, right, steps, leaf
    ):
        tmp_dir = _fresh_dir(tmp_path_factory)
        left = _write_table(data, tmp_dir, "left", "csv")
        right = _write_table(right, tmp_dir, "right", "csv")
        for backend in BACKENDS:
            with Session(backend=backend):
                expected = _collect(*_build(steps, leaf, left, right))
            for flag in FLAGS:
                with Session(backend=backend, options={flag: False}):
                    plan, taps = _build(steps, leaf, left, right)
                    got = _collect(plan, taps)
                    # row labels too, but a filter folded into its scan
                    # renumbers the rows it keeps
                    labelled = (flag == "optimizer.predicate_pushdown"
                                or _same_labels(got[0], expected[0]))
                    if not (_equal(got[0], expected[0]) and labelled
                            and got[1] == expected[1]):
                        raise AssertionError(
                            f"{flag}=False changed the result on "
                            f"{backend!r}.\nsteps: {steps}\n"
                            f"{plan.explain()}"
                        )


class TestOneScanLeaf:
    @given(data=tables(), right=shared_right_tables(), steps=chains())
    @settings(max_examples=25, deadline=None)
    def test_read_csv_and_scan_csv_build_the_same_plan(
        self, tmp_path_factory, data, right, steps
    ):
        tmp_dir = _fresh_dir(tmp_path_factory)
        left = _write_table(data, tmp_dir, "left", "csv")
        right = _write_table(right, tmp_dir, "right", "csv")
        seen = []
        for leaf in ("read", "scan"):
            # a session each: a hold in one chain would release what a
            # hold in the other had pinned (section 3.5)
            with Session(backend="pandas"):
                frame = _build(steps, leaf, left, right)[0]
                seen.append((frame.explain(), fingerprint_node(frame.node)))
        assert seen[0] == seen[1], steps


class TestPushdownIsBoundedAndIdempotent:
    @given(data=tables(), right=shared_right_tables(), steps=chains(),
           leaf=st.sampled_from(sorted(LEAVES)))
    @settings(max_examples=40, deadline=None)
    def test_swaps_nodes_and_second_run(
        self, tmp_path_factory, data, right, steps, leaf
    ):
        tmp_dir = _fresh_dir(tmp_path_factory)
        left = _write_table(data, tmp_dir, "left", "csv")
        right = _write_table(right, tmp_dir, "right", "csv")
        filters = sum({"filter": 1, "peaks": 1, "fork": 2}.get(step[0], 0)
                      for step in steps)

        def roots():
            frame, taps = _build(steps, leaf, left, right)
            return [frame.node] + [tap.node for tap in taps]

        with Session(backend="pandas",
                     options={"optimizer.reuse": True}) as session:
            plan = roots()
            raw = len(collect_subgraph(plan))
            swaps = push_down_predicates(plan)
            # a filter hops each op under it at most once ...
            assert swaps <= filters * len(steps), steps
            # ... and the op it passed stands where it stood; the filters
            # the pass builds on the way down replace each other, and a
            # pushed disjunction's own filter and mask are built once
            after = collect_subgraph(plan)
            pushed = sum(1 + len(_above(n.inputs[1], n.inputs[0]))
                         for n in after if n.label == _DISJUNCTION)
            assert len(after) <= raw + swaps + pushed, steps
            assert push_down_predicates(plan) == 0, steps
            fold_predicates_into_scans(plan)
            assert fold_predicates_into_scans(plan) == 0, steps

            # and through the pipeline, every flag on and reuse too: no
            # node of the plan handed in changes its op or args (a
            # rewrite builds a fresh node), and optimizing an optimized
            # plan moves no filter
            plan = roots()
            handed = [(node, node.op, copy.deepcopy(node.args))
                      for node in collect_subgraph(plan)]
            assert optimize(plan, session, live_nodes=[])[
                "pushdown"] <= filters * len(steps), steps
            assert all(node.op == op and node.args == args
                       for node, op, args in handed), steps
            again = optimize(plan, session, live_nodes=[])
            assert (again["pushdown"], again["scan_fold"]) == (0, 0), steps
