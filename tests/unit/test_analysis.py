"""Static plan analyzer: schema inference, lint rules, surfacing.

Three layers under test:

- **coverage**: every operator registered in ``OPS`` must have a schema
  transfer function (a new op without one fails the sweep loudly), and
  the tightened ``used_attrs`` declarations are pinned so they cannot
  silently regress to over-claiming ``ALL_COLUMNS``,
- **rules**: one positive and one clean-negative case per built-in rule
  (LFP001..LFP006), plus the rule table,
- **surfacing**: ``validate()`` and strict ``collect()`` raise *before*
  any execution machinery runs, warn-mode emits
  :class:`PlanDiagnosticsWarning`, and ``explain(diagnostics=True)``
  renders the deterministic golden report.
"""

import os
import warnings

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.analysis.plan import (
    RULES,
    PlanValidationError,
    Severity,
    analyze_plan,
    infer_schemas_for_roots,
    render_diagnostics,
    rule,
)
from repro.analysis.plan.diagnostics import PlanDiagnosticsWarning
from repro.analysis.plan.lint import LintSession, _LintValue
from repro.analysis.plan.schema import SCHEMA_RULES
from repro.core.session import Session
from repro.frame import DataFrame
from repro.graph.node import ALL_COLUMNS, OPS, Node
from repro.io import write_dataset


@pytest.fixture
def trips_csv(make_csv):
    n = 20
    return make_csv(
        {
            "pickup_time": np.array(
                ["2024-06-%02d 09:00:00" % (i % 28 + 1) for i in range(n)],
                dtype=object,
            ),
            "passengers": np.arange(n) % 5 + 1,
            "fare": np.round(np.linspace(1, 40, n), 2),
        },
        "trips.csv",
    )


@pytest.fixture
def sales_dataset(tmp_path):
    root = os.path.join(tmp_path, "sales_hive")
    write_dataset(
        DataFrame({
            "region": np.array(["east"] * 4 + ["west"] * 4, dtype=object),
            "amount": np.arange(8) * 10,
        }),
        root,
        partition_on="region",
    )
    return root


# ---------------------------------------------------------------------------
# Coverage: ops x schema rules, and the used_attrs contract.
# ---------------------------------------------------------------------------


class TestCoverage:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_op_has_a_schema_rule(self, op):
        """A newly registered operator without schema semantics must
        fail here, not degrade silently to unknown."""
        assert op in SCHEMA_RULES, (
            f"operator {op!r} has no schema transfer function; add one "
            f"in repro.analysis.plan.schema (NodeSchema.unknown() is an "
            f"acceptable explicit choice)"
        )

    def test_no_stale_schema_rules(self):
        stale = set(SCHEMA_RULES) - set(OPS)
        assert not stale, f"schema rules for unregistered ops: {stale}"

    def test_used_attrs_tightened(self, trips_csv):
        """Pin the PR's used_attrs narrowing: ops that reference no
        columns by name must claim none, and honest over-claimers must
        say ALL_COLUMNS explicitly."""
        with Session(backend="pandas"):
            df = lfp.read_csv(trips_csv)
            merged = df.merge(df, on="fare")
            assert merged.node.used_attrs() == {"fare"}
            natural = df.merge(df)
            assert natural.node.used_attrs() == {ALL_COLUMNS}
            vc = df["passengers"].value_counts()
            assert vc.node.used_attrs() == set()
            cat = lfp.concat([df, df])
            assert cat.node.used_attrs() == set()
            desc = df.describe()
            assert desc.node.used_attrs() == {ALL_COLUMNS}

    def test_every_op_declares_attr_contract(self):
        for name, spec in OPS.items():
            assert spec.mod_attrs is not None, name
            assert spec.used_attrs is not None, name


# ---------------------------------------------------------------------------
# Schema inference.
# ---------------------------------------------------------------------------


class TestSchemaInference:
    def test_quickstart_pipeline(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv, parse_dates=["pickup_time"])
            df["hour"] = df.pickup_time.dt.hour
            df = df[df.fare > 0]
            out = df.groupby(["hour"])["passengers"].sum()
            schemas = infer_schemas_for_roots([out.node], session)

            source = schemas[df.node.inputs[0].inputs[0].id]  # read_csv
            assert source.columns == ("pickup_time", "passengers", "fare")
            assert source.dtype_of("pickup_time") == "datetime64[ns]"

            frame = schemas[df.node.id]  # post-filter frame
            assert frame.columns == (
                "pickup_time", "passengers", "fare", "hour",
            )
            assert frame.dtype_of("hour") == "int64"

            result = schemas[out.node.id]
            assert result.kind == "series"
            assert result.series_name == "passengers"
            assert result.index == ("hour",)

    def test_merge_suffixing(self, make_csv):
        left = make_csv({"k": np.arange(4), "v": np.arange(4)}, "l.csv")
        right = make_csv({"k": np.arange(4), "v": np.arange(4) * 1.0,
                          "w": np.arange(4)}, "r.csv")
        with Session(backend="pandas") as session:
            merged = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
            schema = infer_schemas_for_roots(
                [merged.node], session
            )[merged.node.id]
            assert schema.columns == ("k", "v_x", "v_y", "w")

    def test_unknown_degrades_not_guesses(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv).apply(lambda f: f)
            schema = infer_schemas_for_roots(
                [df.node], session
            )[df.node.id]
            assert not schema.known
            # an unknown schema never claims a column is absent
            assert schema.has_column("anything")


# ---------------------------------------------------------------------------
# Rules: one positive + one clean-negative each.
# ---------------------------------------------------------------------------


def _codes(diagnostics):
    return [d.code for d in diagnostics]


class TestRules:
    def test_lfp001_unknown_column(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv)
            bad = df[["fare", "tip"]]
            diags = analyze_plan([bad.node], session=session)
        assert _codes(diags) == ["LFP001"]
        assert "'tip'" in diags[0].message
        assert diags[0].severity is Severity.ERROR

    def test_lfp002_filter_on_dropped(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv)
            mask = df.fare > 0
            filtered = df.drop(columns=["fare"])[mask]
            diags = analyze_plan([filtered.node], session=session)
        assert _codes(diags) == ["LFP002"]
        assert "removed" in diags[0].message

    def test_lfp003_merge_key_mismatch(self, make_csv):
        left = make_csv({"k": np.arange(4), "v": np.arange(4)}, "l.csv")
        right = make_csv(
            {"k": np.array(["a", "b", "c", "d"], dtype=object),
             "w": np.arange(4)},
            "r.csv",
        )
        with Session(backend="pandas") as session:
            merged = lfp.read_csv(left, dtype={"k": "int64"}).merge(
                lfp.read_csv(right, dtype={"k": "object"}), on="k"
            )
            diags = analyze_plan([merged.node], session=session)
        assert _codes(diags) == ["LFP003"]
        assert "numeric" in diags[0].message and "string" in diags[0].message

    def test_lfp003_silent_when_dtypes_unknown(self, make_csv):
        # bare CSV headers carry no dtypes: the rule must stay silent
        # rather than guess.
        left = make_csv({"k": np.arange(4)}, "l.csv")
        right = make_csv(
            {"k": np.array(["a", "b", "c", "d"], dtype=object)}, "r.csv"
        )
        with Session(backend="pandas") as session:
            merged = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
            assert analyze_plan([merged.node], session=session) == []

    def test_lfp004_scalar_as_frame(self, trips_csv):
        with Session(backend="pandas") as session:
            total = lfp.read_csv(trips_csv)["fare"].sum()
            # graph-construction bug, built deliberately: head of a scalar
            broken = Node("head", [total.node], {"n": 5})
            diags = analyze_plan([broken], session=session)
        assert _codes(diags) == ["LFP004"]
        assert "scalar" in diags[0].message

    def test_lfp005_dead_subgraph_session_scope_only(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv)
            used = df[df.fare > 0][["fare"]]
            dead = df[df.passengers > 2]  # built, never consumed
            # plan scope: a single plan is about to be consumed -- silent
            assert analyze_plan([dead.node], session=session) == []
            diags = analyze_plan(
                [used.node, dead.node],
                session=session,
                scope="session",
                computed_ids={used.node.id},
            )
        lfp005 = [d for d in diags if d.code == "LFP005"]
        assert len(lfp005) == 1
        assert lfp005[0].op == "filter"
        assert lfp005[0].severity is Severity.WARNING

    def test_lfp006_pushdown_blocked_hint(self, sales_dataset):
        with Session(backend="pandas") as session:
            df = lfp.scan_dataset(sales_dataset)
            hinted = df.dropna()[["amount"]]
            diags = analyze_plan([hinted.node], session=session)
        assert _codes(diags) == ["LFP006"]
        assert diags[0].op == "dropna"
        assert diags[0].severity is Severity.HINT

    @pytest.fixture
    def join_csvs(self, make_csv):
        left = make_csv({"k": [1, 2], "a": [3, 4], "s": ["p", "q"]}, "l.csv")
        right = make_csv({"k": [1, 2], "b": [5, 6]}, "r.csv")
        return left, right

    def test_lfp006_silent_on_merge_that_passes_projection(self, join_csvs):
        left, right = join_csvs
        with Session(backend="pandas") as session:
            joined = lfp.read_csv(left).merge(lfp.read_csv(right))
            out = joined[["b"]]
            assert analyze_plan([out.node], session=session) == []

    def test_lfp006_names_merge_printed_whole(self, join_csvs):
        from repro.lazyfatpandas.func import print as lazy_print

        left, right = join_csvs
        with Session(backend="pandas") as session:
            joined = lfp.read_csv(left).merge(lfp.read_csv(right))
            lazy_print(joined)
            roots = list(session.pending_prints)
            diags = analyze_plan(roots, session=session)
            session.pending_prints.clear()
        assert _codes(diags) == ["LFP006", "LFP006"]
        assert {d.op for d in diags} == {"merge"}

    def test_lfp006_silent_on_foldable_plan(self, sales_dataset):
        with Session(backend="pandas") as session:
            df = lfp.scan_dataset(sales_dataset)
            clean = df[df.amount > 10][["amount"]]
            assert analyze_plan([clean.node], session=session) == []

    def test_clean_quickstart_has_no_diagnostics(self, trips_csv):
        with Session(backend="pandas") as session:
            df = lfp.read_csv(trips_csv, parse_dates=["pickup_time"])
            df["hour"] = df.pickup_time.dt.hour
            out = df[df.fare > 0].groupby(["hour"])["passengers"].sum()
            assert analyze_plan([out.node], session=session) == []

    @pytest.mark.parametrize("backend", ["pandas", "dask"])
    def test_clean_paper_plan_has_no_diagnostics(self, make_csv, backend):
        """The deepest paper-shaped plan -- two reads, a merge, derived
        columns, chained filters, a dropped column and a grouped mean --
        is correct, and both pushdowns apply to it: no rule fires."""
        trips = make_csv({
            "pickup_time": np.array(
                [f"2024-06-{i % 28 + 1:02d} {i % 24:02d}:00:00"
                 for i in range(60)], dtype=object),
            "zone": np.arange(60) % 8,
            "passengers": np.arange(60) % 6 + 1,
            "fare": np.arange(60) * 1.5 - 2,
            "tip": np.arange(60) % 7 * 0.5,
        }, "trips.csv")
        zones = make_csv({
            "zone": np.arange(8),
            "borough": np.array([f"b{i % 3}" for i in range(8)], dtype=object),
            "note": np.array([f"n{i}" for i in range(8)], dtype=object),
        }, "zones.csv")
        with Session(backend=backend) as session:
            df = lfp.read_csv(trips, parse_dates=["pickup_time"])
            df["hour"] = df.pickup_time.dt.hour
            df = df[df.fare > 0]
            df["tip_rate"] = df.tip / df.fare
            df = df[df.passengers <= 4]
            joined = df.merge(lfp.read_csv(zones), on="zone")
            joined = joined.drop(columns=["note"])
            busy = joined[joined.hour >= 7]
            out = busy.groupby(["borough"])["tip_rate"].mean()
            assert analyze_plan([out.node], session=session) == []
            assert len(out.collect()) > 0


# ---------------------------------------------------------------------------
# The rule table.
# ---------------------------------------------------------------------------


class TestAnalyzerRegistry:
    def test_builtin_codes(self):
        assert [spec.code for spec in RULES] == [
            "LFP001", "LFP002", "LFP003", "LFP004", "LFP005", "LFP006",
        ]

    def test_unknown_code_lists_choices(self):
        with pytest.raises(ValueError, match="LFP001"):
            rule("LFP999")

    def test_session_scope_filter(self):
        """Only the dead-subgraph rule needs a whole session's graph."""
        assert {s.code for s in RULES if s.scope == "session"} == {"LFP005"}
        assert rule("lfp005").scope == "session"


# ---------------------------------------------------------------------------
# Surfacing: validate / collect gate / explain / lint session.
# ---------------------------------------------------------------------------

GOLDEN_REPORT = """\
LFP001 error [unknown-column] unknown column 'tip'; N1 has columns \
['pickup_time', 'passengers', 'fare']
    at N2 getitem_columns(columns=['fare', 'tip']) <- [N1]
1 diagnostic(s): 1 error(s), 0 warning(s), 0 hint(s)"""


class TestSurfacing:
    def test_validate_raises_with_diagnostics(self, trips_csv):
        with Session(backend="pandas"):
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]
            with pytest.raises(PlanValidationError) as exc:
                bad.validate()
        assert _codes(exc.value.errors) == ["LFP001"]
        assert "unknown column 'tip'" in str(exc.value)

    def test_validate_clean_returns_diagnostics(self, trips_csv):
        with Session(backend="pandas"):
            df = lfp.read_csv(trips_csv)[["fare"]]
            assert df.validate() == []

    def test_strict_collect_raises_before_execution(self, trips_csv):
        """The gate must fire before the optimizer or scheduler touch
        the plan -- provably: the scheduler is never even constructed."""
        with Session(backend="pandas") as session:
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]

            def exploding_scheduler(*args, **kwargs):
                raise AssertionError("execution machinery was invoked")

            session.scheduler = exploding_scheduler
            with session.option_context("analysis.level", "strict"):
                with pytest.raises(PlanValidationError):
                    bad.collect()

    def test_warn_collect_warns_then_fails_downstream(self, trips_csv):
        with Session(backend="pandas"):
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                with pytest.raises(Exception):
                    bad.collect()  # pandas itself raises at execution
        assert any(
            issubclass(w.category, PlanDiagnosticsWarning) for w in rec
        )

    def test_off_level_skips_analysis(self, trips_csv):
        with Session(backend="pandas") as session:
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]
            with session.option_context("analysis.level", "off"):
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    with pytest.raises(Exception):
                        bad.collect()
        assert not any(
            issubclass(w.category, PlanDiagnosticsWarning) for w in rec
        )

    def test_golden_report(self, trips_csv):
        with Session(backend="pandas") as session:
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]
            report = render_diagnostics(
                analyze_plan([bad.node], session=session)
            )
        assert report == GOLDEN_REPORT

    def test_explain_diagnostics_section(self, trips_csv):
        with Session(backend="pandas"):
            bad = lfp.read_csv(trips_csv)[["fare", "tip"]]
            text = bad.explain(diagnostics=True, optimized=False)
        assert "== diagnostics ==" in text
        assert text.split("== diagnostics ==\n")[1].strip() == GOLDEN_REPORT

    def test_explain_clean_diagnostics(self, trips_csv):
        with Session(backend="pandas"):
            df = lfp.read_csv(trips_csv)[["fare"]]
            text = df.explain(diagnostics=True, optimized=False)
        assert "(no diagnostics)" in text

    def test_render_empty(self):
        assert render_diagnostics([]) == "(no diagnostics)"


class TestLintSession:
    def test_nothing_executes(self, trips_csv):
        with LintSession(backend="pandas") as session:
            df = lfp.read_csv(trips_csv)
            total = df["fare"].sum().collect()
            assert isinstance(total, _LintValue)
            # stub survives arithmetic and formatting
            assert f"{total + 1:.2f}" == "<lint>"
            assert not total
            diags = session.finish()
        assert diags == []

    def test_finish_reports_dead_subgraph(self, trips_csv):
        with LintSession(backend="pandas") as session:
            df = lfp.read_csv(trips_csv)
            df[df.fare > 0][["fare"]].collect()
            df[df.passengers > 2]  # dead: built, never collected
            diags = session.finish()
        assert "LFP005" in _codes(diags)
