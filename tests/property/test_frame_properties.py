"""Property-based tests (hypothesis) for the frame engine's invariants.

Each property checks the columnar engine against a plain-Python
reference implementation over randomly generated tables.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.frame import DataFrame, Series, concat, merge

from test_strategy_equivalence import _equal

# -- strategies -------------------------------------------------------------

ints = st.integers(min_value=-10_000, max_value=10_000)
floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
words = st.text(
    alphabet="abcdefgh", min_size=1, max_size=6
)


@st.composite
def tables(draw, min_rows=0, max_rows=60):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    return {
        "i": draw(st.lists(ints, min_size=n, max_size=n)),
        "f": draw(st.lists(floats, min_size=n, max_size=n)),
        "s": draw(st.lists(words, min_size=n, max_size=n)),
    }


# -- filtering ----------------------------------------------------------------


@given(tables())
@settings(max_examples=60, deadline=None)
def test_filter_matches_reference(data):
    frame = DataFrame(data)
    out = frame[frame["i"] > 0]
    expected = [v for v in data["i"] if v > 0]
    assert out["i"].to_list() == expected


@given(tables())
@settings(max_examples=60, deadline=None)
def test_filter_complement_partitions_rows(data):
    frame = DataFrame(data)
    mask = frame["i"] > 0
    kept = frame[mask]
    dropped = frame[~mask]
    assert len(kept) + len(dropped) == len(frame)


# -- sorting --------------------------------------------------------------------


@given(tables(min_rows=1))
@settings(max_examples=60, deadline=None)
def test_sort_values_sorted_and_permutation(data):
    frame = DataFrame(data)
    out = frame.sort_values("i")
    values = out["i"].to_list()
    assert values == sorted(data["i"])
    assert sorted(out["s"].to_list()) == sorted(data["s"])


@given(tables(min_rows=1))
@settings(max_examples=40, deadline=None)
def test_sort_desc_is_reverse_of_asc_for_unique_keys(data):
    unique = {}
    for i, v in enumerate(data["i"]):
        unique.setdefault(v, i)
    frame = DataFrame({"i": list(unique.keys())})
    asc = frame.sort_values("i")["i"].to_list()
    desc = frame.sort_values("i", ascending=False)["i"].to_list()
    assert desc == list(reversed(asc))


# -- dedup ------------------------------------------------------------------------


@given(tables())
@settings(max_examples=60, deadline=None)
def test_drop_duplicates_reference(data):
    frame = DataFrame(data)
    out = frame.drop_duplicates(subset=["s"])
    seen, expected = set(), []
    for v in data["s"]:
        if v not in seen:
            seen.add(v)
            expected.append(v)
    assert out["s"].to_list() == expected


# -- groupby --------------------------------------------------------------------------


@given(tables())
@settings(max_examples=60, deadline=None)
def test_groupby_sum_reference(data):
    frame = DataFrame(data)
    out = frame.groupby("s")["i"].sum()
    expected = {}
    for key, value in zip(data["s"], data["i"]):
        expected[key] = expected.get(key, 0) + value
    got = dict(zip(out.index.to_array(), out.values))
    assert {k: int(v) for k, v in got.items()} == expected


@given(tables())
@settings(max_examples=40, deadline=None)
def test_groupby_size_totals_rows(data):
    frame = DataFrame(data)
    out = frame.groupby("s").size()
    assert out.values.sum() == len(frame)


@given(tables(min_rows=1))
@settings(max_examples=40, deadline=None)
def test_groupby_mean_bounded_by_min_max(data):
    frame = DataFrame(data)
    means = frame.groupby("s")["f"].mean()
    mins = frame.groupby("s")["f"].min()
    maxs = frame.groupby("s")["f"].max()
    for lo, mid, hi in zip(mins.values, means.values, maxs.values):
        assert lo - 1e-9 <= mid <= hi + 1e-9


def oracle_nunique(codes, values, isna, n_groups):
    """``frame/groupby.py::_aggregate``'s ``nunique`` loop before it
    counted on codes, verbatim: a set of values per group."""
    out = np.zeros(n_groups, dtype=np.int64)
    seen: dict = {}
    for code, value, na in zip(codes, values, isna):
        if na:
            continue
        bucket = seen.setdefault(int(code), set())
        bucket.add(value)
    for code, bucket in seen.items():
        out[code] = len(bucket)
    return out


#: value columns by dtype kind; ``mixed`` is the object array that keeps
#: the loop (1 == 1.0 == True under hashing, which no code array says)
NUNIQUE_VALUES = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([0.0, -0.0, 1.5, float("nan"), float("inf")]),
    "bool": st.booleans(),
    "date": st.sampled_from(["2020-01-01", "2021-06-01", "NaT"]),
    "str": st.sampled_from(["a", "b", "", None]),
    "category": st.sampled_from(["a", "b", "c", None]),
    "mixed": st.sampled_from(["a", 1, 1.0, True, None, 2.5]),
}


@given(st.data(), st.sampled_from(sorted(NUNIQUE_VALUES)))
@settings(max_examples=200, deadline=None)
def test_groupby_nunique_equals_the_per_row_sets(data, flavour):
    from repro.frame.groupby import GroupBy, _aggregate

    n = data.draw(st.integers(0, 40))
    keys = data.draw(st.lists(
        st.sampled_from([0, 1, 2, 3, None]), min_size=n, max_size=n))
    values = data.draw(st.lists(NUNIQUE_VALUES[flavour], min_size=n, max_size=n))
    dtype = {"int": np.int64, "float": np.float64, "bool": bool,
             "date": "datetime64[ns]"}.get(flavour, object)
    frame = DataFrame({
        "k": np.array([np.nan if k is None else k for k in keys], dtype=float),
    })
    column = frame.with_column("v", np.array(values, dtype=dtype)).column("v")
    if flavour == "category":
        column = column.astype("category")
    frame = frame.with_column("v", column)

    codes, _, n_groups = GroupBy(frame, ["k"])._factorize()
    keep = codes >= 0
    kept = column.filter(keep)
    expected = oracle_nunique(
        codes[keep],
        kept.to_array() if kept.is_category else kept.values,
        kept.isna(), n_groups)
    got = _aggregate(column, codes, n_groups, "nunique")
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()
    assert frame.groupby("k")["v"].nunique().values.tolist() == expected.tolist()


# -- one aggregate plan: partials + combine == the whole frame ------------------------

_DECOMPOSABLE = ["sum", "count", "min", "max", "mean", "size", "first"]
#: quarters: a float sum is exact, so it is the same in any order
_quarters = st.one_of(
    st.integers(min_value=-4000, max_value=4000).map(lambda i: i / 4),
    st.just(float("nan")),
)


@st.composite
def partitioned_aggregations(draw):
    """(table, partition bounds, keys, as_index, triples, series name)."""
    n = draw(st.integers(min_value=0, max_value=40))
    col = lambda elems: draw(st.lists(elems, min_size=n, max_size=n))
    data = {
        "k": col(st.integers(min_value=0, max_value=4)),
        "s": col(st.sampled_from(["a", "b", "c", None])),
        "i": col(ints),
        "f": col(_quarters),
        "w": col(words),
    }
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    bounds = list(zip([0] + cuts, cuts + [n]))  # empty partitions included
    keys = draw(st.lists(st.sampled_from(["k", "s"]), min_size=1,
                         max_size=2, unique=True))
    shape = draw(st.sampled_from(["frame", "series", "size"]))
    if shape == "size":
        return data, bounds, keys, True, [(keys[0], "size", "size")], "size"
    numeric = st.sampled_from(_DECOMPOSABLE)
    funcs = {"i": numeric, "f": numeric, "k": numeric,
             "w": st.sampled_from(["count", "size", "first"])}
    if shape == "series":
        column = draw(st.sampled_from(sorted(funcs)))
        return (data, bounds, keys, True,
                [(column, draw(funcs[column]), column)], column)
    from repro.frame.groupby import agg_outputs

    spec = {
        column: draw(st.one_of(
            funcs[column],
            st.lists(funcs[column], min_size=1, max_size=3, unique=True),
        ))
        for column in draw(st.lists(st.sampled_from(sorted(funcs)),
                                    min_size=1, max_size=4, unique=True))
    }
    return data, bounds, keys, draw(st.booleans()), agg_outputs(spec), None


@given(partitioned_aggregations())
@settings(max_examples=150, deadline=None)
def test_partials_combine_to_the_whole_frame_aggregate(case):
    """For every spec ``decompose`` accepts and every split of the rows:
    ``combine_partials(concat(partial_aggregate(p) for p in parts))`` is
    the eager ``GroupBy`` result, bit for bit."""
    from repro.frame.groupby import (
        GroupBy, combine_partials, decompose, partial_aggregate,
    )

    data, bounds, keys, as_index, triples, series = case
    frame = DataFrame(data)
    whole = GroupBy(frame, keys, as_index=as_index).aggregate(triples, series)
    pairs, outputs = decompose(triples)
    partials = [partial_aggregate(frame[lo:hi], keys, pairs)
                for lo, hi in bounds]
    combined = combine_partials(concat(partials), keys, outputs,
                                as_index=as_index, series=series)
    assert _equal(combined, whole), (combined, whole)


# -- merge -----------------------------------------------------------------------------


@given(tables(max_rows=30), tables(max_rows=30))
@settings(max_examples=40, deadline=None)
def test_inner_merge_matches_nested_loop(left_data, right_data):
    left = DataFrame({"k": left_data["s"], "lv": left_data["i"]})
    right = DataFrame({"k": right_data["s"], "rv": right_data["i"]})
    out = merge(left, right, on="k")
    expected = [
        (lk, lv, rv)
        for lk, lv in zip(left_data["s"], left_data["i"])
        for rk, rv in zip(right_data["s"], right_data["i"])
        if lk == rk
    ]
    got = list(zip(out["k"].to_list(), out["lv"].to_list(), out["rv"].to_list()))
    assert sorted(got) == sorted(expected)


@given(tables(max_rows=30))
@settings(max_examples=40, deadline=None)
def test_left_merge_keeps_all_left_rows(data):
    left = DataFrame({"k": data["s"], "v": data["i"]})
    right = DataFrame({"k": ["a"], "w": [1]})
    out = merge(left, right, on="k", how="left")
    assert len(out) >= len(left)


# -- concat / roundtrip ------------------------------------------------------------------


@given(tables(), tables())
@settings(max_examples=40, deadline=None)
def test_concat_length_and_order(data_a, data_b):
    a, b = DataFrame(data_a), DataFrame(data_b)
    out = concat([a, b])
    assert len(out) == len(a) + len(b)
    assert out["i"].to_list() == data_a["i"] + data_b["i"]


@given(tables())
@settings(max_examples=30, deadline=None)
def test_csv_roundtrip(tmp_path_factory, data):
    import os

    frame = DataFrame(data)
    path = os.path.join(
        tmp_path_factory.mktemp("prop"), "roundtrip.csv"
    )
    frame.to_csv(path)
    from repro.frame import read_csv

    again = read_csv(path)
    assert len(again) == len(frame)
    assert again["i"].to_list() == data["i"]
    # str() writes the shortest exact repr, so the roundtrip is bit-exact
    assert [float(v) for v in again["f"].to_list()] == data["f"]


# -- category invariants --------------------------------------------------------------------


@given(st.lists(words, min_size=0, max_size=80))
@settings(max_examples=60, deadline=None)
def test_category_roundtrip_identity(values):
    series = Series(np.array(values, dtype=object))
    encoded = series.astype("category")
    assert encoded.values.tolist() == values


@given(st.lists(words, min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_category_nunique_matches_set(values):
    series = Series(np.array(values, dtype=object)).astype("category")
    assert series.nunique() == len(set(values))


# -- series aggregation -------------------------------------------------------------------------


@given(st.lists(floats, min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_sum_mean_consistent(values):
    series = Series(values)
    assert math.isclose(
        series.sum(), sum(values), rel_tol=1e-9, abs_tol=1e-6
    )
    assert math.isclose(
        series.mean(), sum(values) / len(values), rel_tol=1e-9, abs_tol=1e-6
    )


@given(st.lists(ints, min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_min_max_bound_all_values(values):
    series = Series(values)
    assert series.min() == min(values)
    assert series.max() == max(values)
