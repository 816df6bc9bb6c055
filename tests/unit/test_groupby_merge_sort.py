"""Unit tests for groupby, merge, sorting, dedup, and concat."""

import warnings

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.frame import DataFrame, Series, concat, merge


def sales():
    return DataFrame(
        {
            "region": ["e", "w", "e", "w", "e"],
            "product": ["a", "a", "b", "b", "a"],
            "units": [1, 2, 3, 4, 5],
            "price": [10.0, 20.0, 30.0, np.nan, 50.0],
        }
    )


class TestGroupBy:
    def test_single_key_sum(self):
        out = sales().groupby("region")["units"].sum()
        assert dict(zip(out.index.to_array(), out.values)) == {"e": 9, "w": 6}

    def test_mean_skips_na(self):
        out = sales().groupby("region")["price"].mean()
        got = dict(zip(out.index.to_array(), out.values))
        assert got["e"] == pytest.approx(30.0)
        assert got["w"] == pytest.approx(20.0)

    def test_count_skips_na(self):
        out = sales().groupby("region")["price"].count()
        assert dict(zip(out.index.to_array(), out.values)) == {"e": 3, "w": 1}

    def test_min_max(self):
        gb = sales().groupby("region")["units"]
        assert dict(zip(gb.min().index.to_array(), gb.min().values)) == {"e": 1, "w": 2}
        assert dict(zip(gb.max().index.to_array(), gb.max().values)) == {"e": 5, "w": 4}

    def test_size_counts_rows(self):
        out = sales().groupby("region").size()
        assert dict(zip(out.index.to_array(), out.values)) == {"e": 3, "w": 2}

    def test_multi_key(self):
        out = sales().groupby(["region", "product"])["units"].sum()
        assert len(out) == 4

    def test_na_keys_dropped(self):
        frame = DataFrame({"k": ["a", None, "a"], "v": [1, 2, 3]})
        out = frame.groupby("k")["v"].sum()
        assert len(out) == 1
        assert out.values[0] == 4

    def test_agg_dict(self):
        out = sales().groupby("region").agg({"units": "sum", "price": "count"})
        assert out.columns == ["units", "price"]

    def test_agg_multi_func(self):
        out = sales().groupby("region").agg({"units": ["sum", "mean"]})
        assert out.columns == ["units_sum", "units_mean"]

    def test_as_index_false_keeps_key_columns(self):
        out = sales().groupby("region", as_index=False).agg({"units": "max"})
        assert "region" in out.columns

    def test_std(self):
        out = sales().groupby("product")["units"].std()
        expected = np.std([1, 2, 5], ddof=1)
        got = dict(zip(out.index.to_array(), out.values))
        assert got["a"] == pytest.approx(expected)

    def test_nunique(self):
        out = sales().groupby("region")["product"].nunique()
        assert dict(zip(out.index.to_array(), out.values)) == {"e": 2, "w": 2}

    def test_first(self):
        out = sales().groupby("region")["product"].first()
        assert dict(zip(out.index.to_array(), out.values)) == {"e": "a", "w": "a"}

    def test_non_numeric_sum_rejected(self):
        with pytest.raises(TypeError):
            sales().groupby("region")["product"].sum()

    def test_missing_key_rejected(self):
        with pytest.raises(KeyError):
            sales().groupby("zzz")

    def test_datetime_min(self):
        frame = DataFrame(
            {
                "k": ["a", "a", "b"],
                "t": np.array(
                    ["2024-01-02", "2024-01-01", "2024-02-01"],
                    dtype="datetime64[ns]",
                ),
            }
        )
        out = frame.groupby("k").agg({"t": "min"})
        assert out["t"].values[0] == np.datetime64("2024-01-01")

    def test_frame_groupby_multi_columns(self):
        out = sales().groupby("region")[["units", "price"]].sum()
        assert out.columns == ["units", "price"]


# -- one aggregate plan: every backend against the eager GroupBy -------------

_NAN = float("nan")


def _agg_table():
    """Twelve rows; group ``k == 4`` has no valid ``v`` at all.  Floats
    are quarters, so a sum is exact in whatever order it is taken."""
    return {
        "k": [1, 4, 1, 4, 1, 2, 1, 2, 4, 1, 2, 1],
        "c": ["x", "y", "x", "x", "y", "y", "x", "x", "y", "x", "y", "x"],
        "n": [1.5, _NAN, 1.5, 2.0, _NAN, 2.0, 0.5, 0.5, 1.5, _NAN, 2.0, 1.5],
        "s": ["b", None, "a", "b", "a", None, "a", "b", "b", "a", None, "b"],
        "v": [0.25, _NAN, 1.5, _NAN, 2.0, 4.75, _NAN, 0.5, _NAN, 8.0, 1.25, 3.0],
        "i": [3, -1, 4, 1, -5, 9, 2, 6, 5, 3, 5, 8],
        "j": ["p", "q", "p", "r", "q", "q", "r", "p", "p", "q", "r", "r"],
    }


def _categorical(df):
    df["c"] = df["c"].astype("category")
    return df


#: name -> the same pandas program over an eager or a lazy frame
_AGG_CASES = {
    "single_output_spec": lambda df: df.groupby(["k"]).agg({"v": "sum"}),
    "multi_function_spec": lambda df: df.groupby(["k"]).agg(
        {"v": ["sum", "mean"], "i": ["min", "max", "count"], "j": "count"}),
    "column_list_func": lambda df: df.groupby(["k"])[["v", "i"]].sum(),
    "column_func": lambda df: df.groupby(["k"])["i"].max(),
    "size": lambda df: df.groupby(["k"]).size(),
    "as_index_false": lambda df: df.groupby(["k"], as_index=False).agg(
        {"v": ["sum", "mean"], "i": "min"}),
    "two_keys_one_categorical": lambda df: _categorical(df).groupby(
        ["k", "c"]).agg({"i": "sum", "v": "max"}),
    "two_keys_as_columns": lambda df: _categorical(df).groupby(
        ["c", "k"], as_index=False).agg({"i": ["sum", "count"]}),
    "na_float_key": lambda df: df.groupby(["n"]).agg({"i": "sum"}),
    "na_string_key": lambda df: df.groupby(["s"])["i"].sum(),
    "na_keys_size": lambda df: df.groupby(["s", "n"]).size(),
    "all_na_group_mean": lambda df: df.groupby(["k"])["v"].mean(),
    "all_na_group_min": lambda df: df.groupby(["k"]).agg({"v": ["min", "count"]}),
    "key_column_count": lambda df: df.groupby(["k"]).agg({"k": "count"}),
    "key_column_count_as_columns": lambda df: df.groupby(
        ["k"], as_index=False).agg({"k": "count", "i": "sum"}),
    "holistic_std": lambda df: df.groupby(["k"]).agg({"i": "std", "v": "sum"}),
    "holistic_nunique": lambda df: df.groupby(["k"])["j"].agg("nunique"),
    "holistic_first": lambda df: df.groupby(["k"]).agg({"j": "first"}),
}


def _assert_same_column(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    a, b = got.to_array(), want.to_array()
    assert a.dtype == b.dtype, what
    if a.dtype.kind == "f":
        same = (a == b) | ((a != a) & (b != b))
    else:
        same = np.array([x == y or (x is None and y is None)
                         for x, y in zip(a, b)], dtype=bool)
    assert len(a) == len(b) and same.all(), f"{what}: {a} != {b}"


def _assert_same_result(got, want):
    assert type(got) is type(want)
    assert got.index.name == want.index.name
    assert got.index.to_array().tolist() == want.index.to_array().tolist()
    if isinstance(want, Series):
        assert got.name == want.name
        _assert_same_column(got.column, want.column, got.name)
        return
    assert got.columns == want.columns
    for name in want.columns:
        _assert_same_column(got.column(name), want.column(name), name)


class TestOneAggregatePlan:
    """``frame/groupby.py`` owns the spec -> labels rule and the
    partial/combine decomposition; each backend must return exactly what
    the eager whole-frame ``GroupBy`` returns -- type, columns, dtypes,
    index and values -- with no warning leaked on the way."""

    @pytest.mark.parametrize("case", sorted(_AGG_CASES))
    @pytest.mark.parametrize("backend", ["pandas", "modin", "dask"])
    def test_backend_matches_eager_groupby(self, backend, case):
        program = _AGG_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = program(DataFrame(_agg_table()))
            with Session(backend=backend):
                got = program(lfp.DataFrame(_agg_table())).collect()
        _assert_same_result(got, want)

    def test_strict_analysis_knows_the_output_labels(self):
        """The schema rule used to list the *source* columns, so a valid
        program failed LFP001 on ``v_sum`` under ``analysis.level=strict``
        and warned at the default level."""
        with Session(backend="pandas",
                     options={"analysis.level": "strict"}) as session:
            # arrays: a from_data leaf knows the dtypes of those
            df = lfp.DataFrame({name: np.asarray(values) for name, values
                                in _agg_table().items() if name in "kvj"})
            out = df.groupby(["k"], as_index=False).agg(
                {"v": ["sum", "mean"], "j": "nunique"})
            assert "(no diagnostics)" in out["v_sum"].explain(diagnostics=True)
            assert out["v_sum"].collect().to_list() == [14.75, 6.5, 0.0]
            from repro.analysis.plan.schema import infer_schemas_for_roots

            schema = infer_schemas_for_roots([out.node], session)[out.node.id]
            assert schema.columns == ("k", "v_sum", "v_mean", "j")
            assert schema.dtype_map() == {
                "k": "int64", "v_sum": "float64", "v_mean": "float64",
                "j": "int64",
            }


    def test_invariant_tool_rejects_a_second_aggregate_table(self, invariants):
        import ast

        table = ast.parse(
            'class G:\n    _RECOMBINE = {"sum": "sum", "count": "sum", "min": "min"}'
        )
        for sim in ("backends/modin_sim/frame.py", "core/optimizer/shuffle.py"):
            assert list(invariants.check_one_aggregate_plan(table, sim))
        assert not list(invariants.check_one_aggregate_plan(table, "frame/groupby.py"))
        assert invariants.run() == []


# -- one join plan: every backend and partition shape against frame.merge ----


def _join_tables():
    """A 30-row left and a 12-row right table: duplicate keys on both
    sides, NA keys (``k`` is read back as float64), a string key pair
    for ``left_on`` / ``right_on``, ``v`` on both sides (suffixed, or a
    second natural-join key), and keys only one side has."""
    left_k = [1, 2, 2, None, 5, 1, 7, None, 3, 2] * 3
    right_k = [2, 1, None, 4, 2, 8, 1, 3, None, 11, 2, 6]
    left = {
        "k": left_k,
        "s": [f"s{i % 6}" for i in range(30)],
        "v": [i % 4 for i in range(30)],
        "a": list(range(30)),
    }
    right = {
        "k": right_k,
        "t": [f"s{i % 8}" for i in range(12)],
        "v": [i % 3 for i in range(12)],
        "b": [100 + i for i in range(12)],
    }
    return left, right


#: name -> the merge keyword arguments
_JOIN_CASES = {
    "on": {"on": "k"},
    "left_on_right_on": {"left_on": "s", "right_on": "t"},
    "two_keys": {"on": ["k", "v"]},
    "suffixes": {"on": "k", "suffixes": ("_l", "_r")},
    "natural": {},
}

#: name -> (left split, right split)
_JOIN_SHAPES = {
    "left_single_right_split": (False, True),
    "left_split_right_single": (True, False),
    "both_split": (True, True),
}


def _assert_same_frame(got, want):
    assert got.columns == want.columns
    for name in want.columns:
        _assert_same_column(got.column(name), want.column(name), name)


class TestOneJoinPlan:
    """``frame/merge.py`` owns the key rule, the output-label rule and
    the broadcast rule; every backend, however its inputs are cut, must
    return what the eager ``merge`` returns -- columns, dtypes, row
    order and values."""

    @pytest.fixture
    def tables(self, make_csv):
        left, right = _join_tables()
        return make_csv(left, "left.csv"), make_csv(right, "right.csv")

    def _collect(self, backend, tables, shape, kwargs):
        left_split, right_split = _JOIN_SHAPES[shape]
        left_path, right_path = tables
        # over the size gate's limit, the Modin plan joins cut pieces (a
        # natural join's keys are unknown to the cut: it stays whole)
        cut = backend == "modin" and left_split and bool(kwargs.keys() & {
            "on", "left_on"})
        with Session(backend=backend) as session:
            if backend == "modin" and left_split:
                session.set_option("optimizer.shuffle_threshold_bytes", 100)
            left = lfp.scan_csv(
                left_path, partition_bytes=64 if left_split else 1 << 20)
            right = lfp.scan_csv(
                right_path, partition_bytes=64 if right_split else 1 << 20)
            got = left.merge(right, **kwargs).collect()
            if cut:
                assert session.last_optimize_report["partitions_cut"] > 0
            return got

    @pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
    @pytest.mark.parametrize("case", sorted(_JOIN_CASES))
    @pytest.mark.parametrize("shape", sorted(_JOIN_SHAPES))
    @pytest.mark.parametrize("backend", ["pandas", "modin", "dask"])
    def test_backend_matches_eager_merge(self, tables, backend, shape, case,
                                         how):
        from repro.frame import read_csv

        kwargs = dict(_JOIN_CASES[case], how=how)
        want = read_csv(tables[0]).merge(read_csv(tables[1]), **kwargs)
        assert len(want) > 0
        got = self._collect(backend, tables, shape, kwargs)
        _assert_same_frame(got, want)

    def test_the_rules_have_one_definition(self):
        from repro.frame.merge import can_broadcast, join_keys, join_labels

        assert join_keys(["k", "v", "a"], ["b", "v", "k"]) == (
            ["k", "v"], ["k", "v"])
        assert join_keys(None, None) is None  # natural, columns unknown
        assert join_keys(None, None, left_on="s", right_on=["t"],
                         how="left") == (["s"], ["t"])
        with pytest.raises(ValueError):
            join_keys(["a"], ["b"])
        assert [label for _s, _n, label in join_labels(
            ["k", "v", "a"], ["k", "v", "b"], (["k"], ["k"]))] == [
            "k", "v_x", "a", "v_y", "b"]
        assert [label for _s, _n, label in join_labels(
            ["s", "v"], ["t", "v"], (["s"], ["t"]), suffixes=("_l", "_r"),
            how="outer")] == ["s", "v_l", "t", "v_r"]
        assert [how for how in ("inner", "left", "right", "outer")
                if can_broadcast(how)] == ["inner", "left"]

    def test_invariant_tool_rejects_a_second_join_plan(self, invariants):
        import ast

        flip = ast.parse("def _flip_merge_kwargs(kwargs):\n    return kwargs")
        rule = ast.parse("ok = how in ('left', 'inner')")
        for module in ("backends/dask_sim/frame.py", "core/optimizer/shuffle.py"):
            assert list(invariants.check_one_join_plan(flip, module))
            assert list(invariants.check_one_join_plan(rule, module))
        assert not list(invariants.check_one_join_plan(rule, "frame/merge.py"))
        assert not list(invariants.check_one_join_plan(
            ast.parse("x = how in ('left', 'outer')"), "frame/merge.py"))
        assert invariants.run() == []


class TestMerge:
    def left(self):
        return DataFrame({"k": [1, 2, 3], "l": ["a", "b", "c"]})

    def right(self):
        return DataFrame({"k": [2, 3, 4], "r": ["x", "y", "z"]})

    def test_inner(self):
        out = merge(self.left(), self.right(), on="k")
        assert out["k"].to_list() == [2, 3]
        assert out["r"].to_list() == ["x", "y"]

    def test_left(self):
        out = merge(self.left(), self.right(), on="k", how="left")
        assert len(out) == 3
        assert out["r"].to_list() == [None, "x", "y"]

    def test_right(self):
        out = merge(self.left(), self.right(), on="k", how="right")
        assert sorted(out["k"].to_list()) == [2, 3, 4]

    def test_outer(self):
        out = merge(self.left(), self.right(), on="k", how="outer")
        assert sorted(out["k"].to_list()) == [1, 2, 3, 4]

    def test_one_to_many(self):
        right = DataFrame({"k": [2, 2], "r": ["x1", "x2"]})
        out = merge(self.left(), right, on="k")
        assert len(out) == 2

    def test_left_on_right_on(self):
        right = DataFrame({"key2": [2], "r": ["x"]})
        out = merge(self.left(), right, left_on="k", right_on="key2")
        assert out["l"].to_list() == ["b"]

    def test_multi_key(self):
        left = DataFrame({"a": [1, 1], "b": ["x", "y"], "v": [10, 20]})
        right = DataFrame({"a": [1], "b": ["y"], "w": [99]})
        out = merge(left, right, on=["a", "b"])
        assert out["v"].to_list() == [20]

    def test_overlapping_columns_suffixed(self):
        left = DataFrame({"k": [1], "v": [10]})
        right = DataFrame({"k": [1], "v": [20]})
        out = merge(left, right, on="k")
        assert set(out.columns) == {"k", "v_x", "v_y"}

    def test_int_na_promotes_to_float(self):
        right = DataFrame({"k": [2], "num": [7]})
        out = merge(self.left(), right, on="k", how="left")
        assert np.isnan(out["num"].values[0])

    def test_unsupported_how_rejected(self):
        with pytest.raises(ValueError):
            merge(self.left(), self.right(), on="k", how="cross")

    def test_no_common_columns_rejected(self):
        with pytest.raises(ValueError):
            merge(DataFrame({"a": [1]}), DataFrame({"b": [1]}))

    def test_natural_join_on_common_columns(self):
        out = merge(self.left(), self.right())
        assert out["k"].to_list() == [2, 3]


class TestSorting:
    def test_sort_single_asc(self):
        frame = DataFrame({"a": [3, 1, 2]})
        assert frame.sort_values("a")["a"].to_list() == [1, 2, 3]

    def test_sort_desc(self):
        frame = DataFrame({"a": [3, 1, 2]})
        assert frame.sort_values("a", ascending=False)["a"].to_list() == [3, 2, 1]

    def test_sort_string_column(self):
        frame = DataFrame({"a": ["b", "a", "c"]})
        assert frame.sort_values("a")["a"].to_list() == ["a", "b", "c"]

    def test_sort_multi_key_mixed_order(self):
        frame = DataFrame({"g": ["x", "y", "x", "y"], "v": [1, 2, 3, 4]})
        out = frame.sort_values(["g", "v"], ascending=[True, False])
        assert out["g"].to_list() == ["x", "x", "y", "y"]
        assert out["v"].to_list() == [3, 1, 4, 2]

    def test_sort_is_stable(self):
        frame = DataFrame({"k": [1, 1, 1], "tag": ["first", "second", "third"]})
        out = frame.sort_values("k")
        assert out["tag"].to_list() == ["first", "second", "third"]

    def test_nlargest_nsmallest(self):
        frame = DataFrame({"a": [5, 1, 9, 3]})
        assert frame.nlargest(2, "a")["a"].to_list() == [9, 5]
        assert frame.nsmallest(2, "a")["a"].to_list() == [1, 3]

    def test_sort_index(self):
        frame = DataFrame({"a": [1, 2, 3]})
        shuffled = frame.take(np.array([2, 0, 1]))
        assert shuffled.sort_index()["a"].to_list() == [1, 2, 3]


class TestDedup:
    def test_drop_duplicates_all_columns(self):
        frame = DataFrame({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(frame.drop_duplicates()) == 2

    def test_drop_duplicates_subset_keeps_first(self):
        frame = DataFrame({"a": [1, 1, 2], "b": ["p", "q", "r"]})
        out = frame.drop_duplicates(subset=["a"])
        assert out["b"].to_list() == ["p", "r"]

    def test_duplicated_flags(self):
        frame = DataFrame({"a": [1, 1, 2]})
        assert frame.duplicated(subset=["a"]).to_list() == [False, True, False]


class TestConcat:
    def test_frames(self):
        a = DataFrame({"x": [1]})
        b = DataFrame({"x": [2]})
        assert concat([a, b])["x"].to_list() == [1, 2]

    def test_missing_columns_filled_with_na(self):
        a = DataFrame({"x": [1], "y": ["p"]})
        b = DataFrame({"x": [2]})
        out = concat([a, b])
        assert out["y"].to_list() == ["p", None]

    def test_int_float_promotion(self):
        a = DataFrame({"x": [1]})
        b = DataFrame({"x": [2.5]})
        assert concat([a, b])["x"].values.dtype == np.float64

    def test_series(self):
        from repro.frame import Series

        out = concat([Series([1]), Series([2])])
        assert out.to_list() == [1, 2]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat([])

    def test_none_entries_skipped(self):
        out = concat([DataFrame({"x": [1]}), None])
        assert len(out) == 1

    def test_consuming_concat_empties_inputs(self):
        from repro.frame.concat import concat_consuming

        a = DataFrame({"x": [1, 2]})
        b = DataFrame({"x": [3]})
        out = concat_consuming([a, b])
        assert out["x"].to_list() == [1, 2, 3]
        assert a.columns == [] or "x" not in a.columns
