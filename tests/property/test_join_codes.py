"""Joins on integer codes equal the per-row tuple matcher they replaced.

``frame/merge.py::_match_rows`` used to build a Python tuple per row and
probe a dict with it.  That loop lives on here, verbatim, as the oracle:
for generated key columns (duplicates, NaN / ``None`` / NaT keys, int
against float, categoricals, several key columns) and all four ``how``,
the index arrays agree element for element -- left order, a left row's
hits in right positional order, then the unmatched right rows ascending.
"""

import importlib
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import DataFrame
from repro.frame.merge import _match_rows, merge

#: ``repro.frame.merge`` the attribute is the function; this is the module
merge_module = importlib.import_module("repro.frame.merge")

# -- the per-row oracle (the body this PR's kernel replaced) -----------------


def _key_tuples(frame, keys):
    arrays = [frame.column(k).to_array() for k in keys]
    return list(zip(*arrays)) if arrays else []


def oracle_match_rows(left, right, left_keys, right_keys, how):
    """Emit aligned row-position arrays; -1 marks a non-match (NA side)."""
    table: Dict[tuple, List[int]] = {}
    for pos, key in enumerate(_key_tuples(right, right_keys)):
        table.setdefault(key, []).append(pos)

    left_out: List[int] = []
    right_out: List[int] = []
    matched_right = np.zeros(len(right), dtype=bool)
    for pos, key in enumerate(_key_tuples(left, left_keys)):
        hits = table.get(key)
        if hits:
            for hit in hits:
                left_out.append(pos)
                right_out.append(hit)
                matched_right[hit] = True
        elif how in ("left", "outer"):
            left_out.append(pos)
            right_out.append(-1)

    if how in ("right", "outer"):
        for pos in np.nonzero(~matched_right)[0]:
            left_out.append(-1)
            right_out.append(int(pos))

    return (
        np.asarray(left_out, dtype=np.int64),
        np.asarray(right_out, dtype=np.int64),
    )


# -- generated keys -------------------------------------------------------------

HOWS = ("inner", "left", "right", "outer")

#: element strategies by key flavour; small domains so keys collide
FLAVOURS = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    "str": st.sampled_from(["a", "b", "", "ab", None]),
    "date": st.sampled_from(["2020-01-01", "2020-01-02", "NaT"]),
    "bool": st.booleans(),
}


def _key_column(flavour, values, categorical):
    if flavour == "date":
        return np.array(values, dtype="datetime64[ns]")
    if flavour == "str":
        frame = DataFrame({"k": np.array(values, dtype=object)})
        if categorical:
            return frame.column("k").astype("category")
        return frame.column("k")
    return np.array(
        values, dtype={"int": np.int64, "float": np.float64, "bool": bool}[flavour]
    )


@st.composite
def key_frames(draw, flavours=None):
    """Two frames over one to three key columns ``k0..`` of the same
    flavour on both sides (a ``str`` key may be categorical on either
    side), plus a payload column."""
    n_keys = draw(st.integers(1, 3))
    flavours = flavours or draw(st.lists(
        st.sampled_from(sorted(FLAVOURS)), min_size=n_keys, max_size=n_keys))
    frames = []
    for side in range(2):
        n = draw(st.integers(0, 14))
        frame = DataFrame({"row": np.arange(n)})
        for i, flavour in enumerate(flavours):
            values = draw(st.lists(FLAVOURS[flavour], min_size=n, max_size=n))
            frame = frame.with_column(
                f"k{i}", _key_column(flavour, values, draw(st.booleans())))
        frames.append(frame)
    return frames[0], frames[1], [f"k{i}" for i in range(len(flavours))]


def _assert_same_pairs(left, right, keys, how):
    got = _match_rows(left, right, keys, keys, how)
    expected = oracle_match_rows(left, right, keys, keys, how)
    for mine, theirs in zip(got, expected):
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.tolist() == theirs.tolist()


@given(key_frames())
@settings(max_examples=250, deadline=None)
def test_index_pairs_equal_the_tuple_matcher(case):
    left, right, keys = case
    for how in HOWS:
        _assert_same_pairs(left, right, keys, how)


@given(key_frames(flavours=["int", "str"]), st.sampled_from(HOWS))
@settings(max_examples=60, deadline=None)
def test_merged_frames_equal_under_either_matcher(case, how):
    """End to end: gather, suffixes and key fill see the same pairs."""
    left, right, keys = case
    got = merge(left, right, on=keys, how=how)
    original = merge_module._match_rows
    merge_module._match_rows = oracle_match_rows
    try:
        expected = merge(left, right, on=keys, how=how)
    finally:
        merge_module._match_rows = original
    assert got.columns == expected.columns
    for name in got.columns:
        mine, theirs = got.column(name), expected.column(name)
        assert mine.dtype == theirs.dtype
        assert repr(mine.to_array().tolist()) == repr(theirs.to_array().tolist())


# -- keys whose equality is not their dtype's keep the tuple loop ----------------


def _frames(left_values, right_values):
    return (DataFrame({"k": left_values}), DataFrame({"k": right_values}))


MIXED = {
    "int-vs-float": (np.array([1, 2, 3, 2]), np.array([2.0, 1.0, 2.5, np.nan])),
    "bool-vs-int": (np.array([True, False]), np.array([1, 0, 2])),
    "object-ints": (np.array([1, 2, "a"], dtype=object),
                    np.array([2, "a", 1.0], dtype=object)),
    # the one NaN object is identical to itself: the tuple rule matches it
    "shared-nan-object": (np.array([np.nan, "a"], dtype=object),
                          np.array(["a", np.nan], dtype=object)),
}


@pytest.mark.parametrize("name", sorted(MIXED))
@pytest.mark.parametrize("how", HOWS)
def test_mixed_kind_keys_match_as_the_tuple_matcher_does(name, how):
    left, right = _frames(*MIXED[name])
    assert merge_module._joint_codes(
        [left.column("k").to_array()], [right.column("k").to_array()]
    ) is None
    _assert_same_pairs(left, right, ["k"], how)


def test_na_keys_never_match_but_none_does():
    left, right = _frames(np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))
    assert [x.tolist() for x in _match_rows(left, right, ["k"], ["k"], "inner")] \
        == [[1], [1]]
    nat = np.array(["NaT", "2020-01-01"], dtype="datetime64[ns]")
    left, right = _frames(nat, nat)
    assert [x.tolist() for x in _match_rows(left, right, ["k"], ["k"], "outer")] \
        == [[0, 1, -1], [-1, 1, 0]]
    none = np.array([None, "a"], dtype=object)
    left, right = _frames(none, none)
    assert [x.tolist() for x in _match_rows(left, right, ["k"], ["k"], "inner")] \
        == [[0, 1], [0, 1]]


def test_wide_multi_key_codes_do_not_overflow():
    """Six int64 keys spanning the whole range: the pairwise
    combine-and-refactorize keeps codes below the row count."""
    rng = np.random.default_rng(5)
    info = np.iinfo(np.int64)
    pool = rng.integers(info.min, info.max, size=(6, 4))
    n = 200
    picks = rng.integers(0, 4, size=(6, 2 * n))
    columns = {f"k{i}": pool[i][picks[i]] for i in range(6)}
    left = DataFrame({k: v[:n] for k, v in columns.items()})
    right = DataFrame({k: v[n:] for k, v in columns.items()})
    for how in HOWS:
        _assert_same_pairs(left, right, sorted(columns), how)
