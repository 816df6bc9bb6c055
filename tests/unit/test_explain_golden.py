"""Golden tests for ``LazyFrame.explain()`` on the quickstart pipeline.

The rendered plan is deterministic (topological renumbering, basename
paths), so optimizer regressions show up as a plain text diff against
the snapshots below: predicate pushdown moves the filter below the
setitem, and projection pushdown narrows the read to the used columns.
Scan nodes additionally render their negotiated contract -- folded-in
projection columns, the pushed predicate, and ``partitions=read/total``
once the pruning pass counted them.
"""

import os

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame
from repro.io import write_dataset


@pytest.fixture
def trips_csv(make_csv):
    n = 50
    return make_csv(
        {
            "pickup_time": np.array(
                ["2024-06-%02d 09:00:00" % (i % 28 + 1) for i in range(n)],
                dtype=object,
            ),
            "passengers": np.arange(n) % 5 + 1,
            "fare": np.round(np.linspace(-5, 40, n), 2),
            "note_a": np.array([f"a{i}" for i in range(n)], dtype=object),
        },
        "trips.csv",
    )


def quickstart_pipeline(path):
    """The paper's Figure 3 shape: derive a column, then filter."""
    df = lfp.read_csv(path, parse_dates=["pickup_time"])
    df["hour"] = df.pickup_time.dt.hour
    df = df[df.fare > 0]
    return df.groupby(["hour"])["passengers"].sum()


RAW_PLAN = """\
N1 scan(format='csv', path=trips.csv, parse_dates=['pickup_time'])
N2 getitem_column(column='pickup_time') <- [N1]
N3 dt_field(field='hour') <- [N2]
N4 setitem(column='hour') <- [N1,N3]
N5 getitem_column(column='fare') <- [N4]
N6 binop(op='>', reflected=False, right=0) <- [N5]
N7 filter <- [N4,N6]
N8 groupby_agg(keys=['hour'], column='passengers', func='sum') <- [N7]"""

# With pushdown on: the filter drops below the setitem and folds into
# the read (``predicate=``; the setitem it passed and the read it folded
# into stand where it stood), and the read is narrowed to the two
# columns the plan uses -- ``fare`` is only the predicate's, the source
# reads it to filter and drops it.
OPTIMIZED_PLAN_PUSHDOWN_ON = """\
N1 scan(format='csv', path=trips.csv, parse_dates=['pickup_time'], columns=['passengers', 'pickup_time'], predicate=(fare>0), partitions=1/1)
N2 getitem_column(column='pickup_time') <- [N1]
N3 dt_field(field='hour') <- [N2]
N4 setitem(column='hour') <- [N1,N3]
N5 groupby_agg(keys=['hour'], column='passengers', func='sum') <- [N4]"""

# With both pushdowns off only the pruning pass's bookkeeping shows: it
# still counts the partitions the read will touch.
OPTIMIZED_PLAN_PUSHDOWN_OFF = RAW_PLAN.replace(
    "parse_dates=['pickup_time'])",
    "parse_dates=['pickup_time'], partitions=1/1)",
)


def chained_filters_pipeline(path):
    """Two filters in a row above a derived column (the shape of
    ``bench/plans.py::paper``): neither reads ``hour``, so both belong
    on the read."""
    df = lfp.read_csv(path, parse_dates=["pickup_time"])
    df["hour"] = df.pickup_time.dt.hour
    df = df[df.fare > 0]
    df = df[df.passengers <= 3]
    return df.groupby(["hour"])["passengers"].sum()


# Lowest first: the fare filter sinks to the read, then the passengers
# filter, which now reads the setitem the first one passed, passes it
# too and stops on the first -- two swaps (each filter is replaced by
# the op it passed).  The two filters never trade places, and both fold
# into the read as one conjunction.
OPTIMIZED_PLAN_CHAINED_FILTERS = """\
N1 scan(format='csv', path=trips.csv, parse_dates=['pickup_time'], columns=['passengers', 'pickup_time'], predicate=(fare>0 & passengers<=3), partitions=1/1)
N2 getitem_column(column='pickup_time') <- [N1]
N3 dt_field(field='hour') <- [N2]
N4 setitem(column='hour') <- [N1,N3]
N5 groupby_agg(keys=['hour'], column='passengers', func='sum') <- [N4]"""


def _sections(text):
    """Split explain() output into (raw, optimized) plan bodies."""
    raw, optimized = text.split("== optimized plan ==")
    raw = raw.replace("== raw plan ==", "").strip()
    return raw, optimized.strip()


class TestExplainGolden:
    def test_plan_with_pushdown_on(self, trips_csv):
        with Session(backend="pandas"):
            out = quickstart_pipeline(trips_csv)
            raw, optimized = _sections(out.explain())
        assert raw == RAW_PLAN
        assert optimized == OPTIMIZED_PLAN_PUSHDOWN_ON

    def test_chained_filters_both_reach_the_read(self, trips_csv):
        with Session(backend="pandas") as session:
            out = chained_filters_pipeline(trips_csv)
            _, optimized = _sections(out.explain())
            out.collect()
            assert session.last_optimize_report["pushdown"] == 2
        assert optimized == OPTIMIZED_PLAN_CHAINED_FILTERS

    def test_plan_with_pushdown_off(self, trips_csv):
        with Session(backend="pandas") as session:
            out = quickstart_pipeline(trips_csv)
            with session.option_context(
                "optimizer.predicate_pushdown", False,
                "optimizer.projection_pushdown", False,
            ):
                raw, optimized = _sections(out.explain())
        assert raw == RAW_PLAN
        # no filter motion, no narrowing of the read's columns
        assert optimized == OPTIMIZED_PLAN_PUSHDOWN_OFF

    def test_explain_has_no_side_effects(self, trips_csv):
        """explain() must not change what a later collect computes."""
        with Session(backend="pandas"):
            out = quickstart_pipeline(trips_csv)
            before = out.explain()
            assert out.explain() == before
            value = out.collect().values.sum()
            raw, optimized = _sections(out.explain())
        assert value == 134
        # the raw graph is as it was built; the plan of the *next*
        # collect is the value this one left on the root
        assert raw == _sections(before)[0] == RAW_PLAN
        assert optimized == "N1 held"

    def test_raw_only(self, trips_csv):
        with Session(backend="pandas"):
            out = quickstart_pipeline(trips_csv)
            text = out.explain(optimized=False)
        assert "== raw plan ==" in text
        assert "== optimized plan ==" not in text


# ---------------------------------------------------------------------------
# Scan nodes: the folded-in contract must be visible in the plan.
# ---------------------------------------------------------------------------


@pytest.fixture
def sales_dataset(tmp_path):
    """3-partition hive dataset with a deterministic basename."""
    frame = DataFrame({
        "region": np.array(
            ["east"] * 4 + ["west"] * 4 + ["north"] * 4, dtype=object
        ),
        "amount": np.arange(12) * 10,
        "qty": np.arange(12) % 3,
    })
    root = os.path.join(tmp_path, "sales_hive")
    write_dataset(frame, root, partition_on="region")
    return root


def scan_pipeline(root):
    df = lfp.scan_dataset(root)
    return df[df.region == "east"][["amount"]]


SCAN_RAW_PLAN = """\
N1 scan(format='dataset', path=sales_hive)
N2 getitem_column(column='region') <- [N1]
N3 binop(op='==', reflected=False, right='east') <- [N2]
N4 filter <- [N1,N3]
N5 getitem_columns(columns=['amount']) <- [N4]"""

# The filter folds into the scan (the source filters while reading), the
# projection narrows the scan's output columns, and hive-key pruning
# keeps 1 of the 3 region partitions.
SCAN_OPTIMIZED_PLAN = """\
N1 scan(format='dataset', path=sales_hive, columns=['amount'], predicate=(region=='east'), partitions=1/3)
N2 getitem_columns(columns=['amount']) <- [N1]"""

# Ablated: the fold and the pruning are off; the filter stays a graph
# node and the scan still reports how many partitions exist.
SCAN_ABLATED_PLAN = """\
N1 scan(format='dataset', path=sales_hive, partitions=3/3)
N2 getitem_column(column='region') <- [N1]
N3 binop(op='==', reflected=False, right='east') <- [N2]
N4 filter <- [N1,N3]
N5 getitem_columns(columns=['amount']) <- [N4]"""


class TestScanGolden:
    def test_scan_plan_with_folding_on(self, sales_dataset):
        with Session(backend="pandas"):
            out = scan_pipeline(sales_dataset)
            raw, optimized = _sections(out.explain())
        assert raw == SCAN_RAW_PLAN
        assert optimized == SCAN_OPTIMIZED_PLAN

    def test_scan_plan_with_folding_off(self, sales_dataset):
        with Session(backend="pandas") as session:
            out = scan_pipeline(sales_dataset)
            with session.option_context(
                "optimizer.predicate_pushdown", False,
                "optimizer.projection_pushdown", False,
                "optimizer.partition_pruning", False,
            ):
                raw, optimized = _sections(out.explain())
        assert raw == SCAN_RAW_PLAN
        assert optimized == SCAN_ABLATED_PLAN

    def test_stats_section_reports_partitions(self, sales_dataset):
        with Session(backend="pandas"):
            out = scan_pipeline(sales_dataset)
            collected = out.collect()
            text = out.explain(stats=True)
        assert "scan partitions read: 1/3" in text
        assert collected.column("amount").to_array().tolist() == [0, 10, 20, 30]

    def test_scan_explain_has_no_side_effects(self, sales_dataset):
        with Session(backend="pandas"):
            out = scan_pipeline(sales_dataset)
            before = out.explain()
            assert out.explain() == before
            value = out.collect().column("amount").to_array().sum()
            raw, optimized = _sections(out.explain())
        assert value == 60
        assert raw == _sections(before)[0] == SCAN_RAW_PLAN
        assert optimized == "N1 held"
