"""Unit tests for Column: storage, dtypes, category encoding, accounting."""

import gc
import pickle

import numpy as np
import pytest
from repro.frame.column import NA_CODE, Column
from repro.frame.dtypes import CategoricalDtype, normalize_dtype, object_nbytes
from repro.memory import memory_manager


class TestConstruction:
    def test_int_inference(self):
        col = Column.from_values([1, 2, 3])
        assert col.values.dtype == np.int64

    def test_float_inference(self):
        col = Column.from_values([1.5, 2.5])
        assert col.values.dtype == np.float64

    def test_string_becomes_object(self):
        col = Column.from_values(["a", "b"])
        assert col.values.dtype == object

    def test_unicode_array_coerced_to_object(self):
        col = Column.from_values(np.array(["x", "y"]))
        assert col.values.dtype == object

    def test_explicit_dtype(self):
        col = Column.from_values([1, 2], dtype="float64")
        assert col.values.dtype == np.float64

    def test_from_values_passthrough_column(self):
        col = Column.from_values([1, 2])
        assert Column.from_values(col) is col

    def test_datetime_normalized_to_ns(self):
        arr = np.array(["2024-01-01"], dtype="datetime64[D]")
        col = Column.from_values(arr)
        assert col.values.dtype == np.dtype("datetime64[ns]")


class TestCategory:
    def test_encode_decode_roundtrip(self):
        values = np.array(["b", "a", "b", None], dtype=object)
        col = Column.from_strings_as_category(values)
        assert col.is_category
        decoded = col.to_array()
        assert list(decoded) == ["b", "a", "b", None]

    def test_na_uses_na_code(self):
        col = Column.from_strings_as_category(
            np.array(["x", None], dtype=object)
        )
        assert col.values[1] == NA_CODE

    def test_categories_are_unique_sorted(self):
        col = Column.from_strings_as_category(
            np.array(["c", "a", "c", "b"], dtype=object)
        )
        assert list(col.categories) == ["a", "b", "c"]

    def test_astype_category(self):
        col = Column.from_values(["x", "y", "x"]).astype("category")
        assert col.is_category
        assert col.nunique() == 2

    def test_astype_back_to_object(self):
        col = Column.from_values(["x", "y"]).astype("category").astype("object")
        assert not col.is_category
        assert list(col.values) == ["x", "y"]

    def test_dtype_reports_categorical(self):
        col = Column.from_values(["x"], dtype="category")
        assert isinstance(col.dtype, CategoricalDtype)
        assert col.dtype == "category"

    def test_filter_preserves_encoding(self):
        col = Column.from_values(["a", "b", "a"], dtype="category")
        out = col.filter(np.array([True, False, True]))
        assert out.is_category
        assert list(out.to_array()) == ["a", "a"]

    def test_concat_categorical_stays_encoded(self):
        a = Column.from_values(["x", "y"], dtype="category")
        b = Column.from_values(["y", "z"], dtype="category")
        merged = Column.concat([a, b])
        assert merged.is_category
        assert list(merged.to_array()) == ["x", "y", "y", "z"]

    def test_concat_mixed_decodes(self):
        a = Column.from_values(["x"], dtype="category")
        b = Column.from_values(["y"])
        merged = Column.concat([a, b])
        assert not merged.is_category
        assert list(merged.values) == ["x", "y"]


class TestSelection:
    def test_take(self):
        col = Column.from_values([10, 20, 30])
        assert list(col.take(np.array([2, 0])).values) == [30, 10]

    def test_filter(self):
        col = Column.from_values([1, 2, 3, 4])
        out = col.filter(np.array([True, False, True, False]))
        assert list(out.values) == [1, 3]

    def test_slice(self):
        col = Column.from_values([1, 2, 3, 4])
        assert list(col.slice(1, 3).values) == [2, 3]


class TestMissing:
    def test_isna_float(self):
        col = Column.from_values([1.0, np.nan])
        assert list(col.isna()) == [False, True]

    def test_isna_object(self):
        col = Column.from_values(np.array(["a", None], dtype=object))
        assert list(col.isna()) == [False, True]

    def test_isna_int_never(self):
        col = Column.from_values([1, 2])
        assert not col.isna().any()

    def test_isna_datetime(self):
        col = Column.from_values(
            np.array(["2024-01-01", "NaT"], dtype="datetime64[ns]")
        )
        assert list(col.isna()) == [False, True]

    def test_isna_category(self):
        col = Column.from_strings_as_category(
            np.array(["a", None], dtype=object)
        )
        assert list(col.isna()) == [False, True]

    def test_fillna_float(self):
        col = Column.from_values([1.0, np.nan]).fillna(0.0)
        assert list(col.values) == [1.0, 0.0]

    def test_fillna_noop_without_na(self):
        col = Column.from_values([1.0, 2.0])
        assert col.fillna(9.9) is col

    def test_fillna_category(self):
        col = Column.from_values(
            np.array(["a", None], dtype=object), dtype="category"
        ).fillna("z")
        assert list(col.to_array()) == ["a", "z"]


class TestStats:
    def test_unique_numeric(self):
        col = Column.from_values([3, 1, 3, 2])
        assert list(col.unique_values()) == [1, 2, 3]

    def test_unique_object_skips_none(self):
        col = Column.from_values(np.array(["b", None, "a"], dtype=object))
        assert list(col.unique_values()) == ["a", "b"]

    def test_nunique(self):
        assert Column.from_values([1, 1, 2]).nunique() == 2


class TestMemoryAccounting:
    def test_numeric_column_charges_raw_bytes(self):
        before = memory_manager.live
        col = Column.from_values(np.arange(100, dtype=np.int64))
        assert memory_manager.live - before == 800
        del col

    def test_object_column_charges_pointers_and_payload(self):
        before = memory_manager.live
        col = Column.from_values(np.array(["abcd"] * 10, dtype=object))
        # 10 pointers (80 B) plus payload (10 * (49 + 4)).
        assert memory_manager.live - before == 80 + 10 * 53
        del col

    def test_derived_column_shares_payload(self):
        col = Column.from_values(np.array(["abcd"] * 100, dtype=object))
        before = memory_manager.live
        derived = col.filter(np.ones(100, dtype=bool))
        # only fresh pointers are charged, not the string payload
        assert memory_manager.live - before == 800
        del derived

    def test_payload_released_when_last_sharer_dies(self):
        gc.collect()  # flush unrelated garbage so deltas are exact
        col = Column.from_values(np.array(["abcd"] * 10, dtype=object))
        derived = col.take(np.arange(10))
        pointers = 80       # 10 rows x 8 B
        payload = 10 * 53   # 10 x (49 overhead + 4 chars)
        baseline = memory_manager.live
        del col
        gc.collect()
        # only the source's pointer buffer frees; the payload survives
        # via the derived column
        assert memory_manager.live == baseline - pointers
        del derived
        gc.collect()
        assert memory_manager.live == baseline - 2 * pointers - payload

    def test_pickle_roundtrip_reregisters(self):
        col = Column.from_values([1, 2, 3])
        data = pickle.dumps(col)
        before = memory_manager.live
        loaded = pickle.loads(data)
        assert memory_manager.live == before + 24
        assert list(loaded.values) == [1, 2, 3]

    def test_pickle_categorical(self):
        col = Column.from_values(["a", "b", "a"], dtype="category")
        loaded = pickle.loads(pickle.dumps(col))
        assert loaded.is_category
        assert list(loaded.to_array()) == ["a", "b", "a"]


class TestDtypeHelpers:
    def test_normalize_aliases(self):
        assert normalize_dtype("int") == np.dtype("int64")
        assert normalize_dtype(float) == np.dtype("float64")
        assert normalize_dtype("str") == np.dtype(object)
        assert normalize_dtype("datetime64") == np.dtype("datetime64[ns]")

    def test_normalize_category(self):
        assert isinstance(normalize_dtype("category"), CategoricalDtype)

    def test_categorical_dtype_equality(self):
        assert CategoricalDtype() == "category"
        assert CategoricalDtype(["a"]) == CategoricalDtype(["a"])
        assert CategoricalDtype(["a"]) != CategoricalDtype(["b"])


OBJECT_ARRAYS = {
    "str": ["a", "", "日本語", "x" * 40],
    "str_none": ["a", None, "bcd", None],
    "nan": ["a", float("nan"), "bb"],
    "mixed": ["a", 1, 2.5, None, True, b"bytes", ("t",), np.str_("np")],
    "none": [None, None],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(OBJECT_ARRAYS))
class TestPickleCarriesThePayloadCount:
    """A pickled column carries the byte count of the payload it owns,
    so loading (a spilled shuffle chunk, a cached result) registers the
    same bytes without walking the strings again."""

    @staticmethod
    def _array(name):
        values = OBJECT_ARRAYS[name]
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out

    def test_known_heap_bytes_register_like_a_count(self, name):
        values = self._array(name)
        told = Column(values, heap_nbytes=object_nbytes(values) - 8 * len(values))
        assert told.nbytes == Column(values).nbytes == object_nbytes(values)

    def test_round_trip_registers_the_same_bytes(self, name):
        memory_manager.reset()
        col = Column(self._array(name))
        before = memory_manager.live
        assert col.__getstate__()["heap_nbytes"] == col.nbytes - 8 * len(col)
        loaded = pickle.loads(pickle.dumps(col))
        assert loaded.nbytes == col.nbytes == object_nbytes(col.values)
        assert memory_manager.live == 2 * before

    def test_a_sharing_column_is_counted_on_load(self, name):
        col = Column(self._array(name))
        head = col.take(np.arange(len(col))[:1])  # shares col's payload
        assert head.__getstate__()["heap_nbytes"] is None
        assert pickle.loads(pickle.dumps(head)).nbytes \
            == object_nbytes(col.values[:1])


def test_categorical_round_trip_keeps_its_dictionary_charge():
    col = Column.from_values(["x", "yy", None, "x"], dtype="category")
    loaded = pickle.loads(pickle.dumps(col))
    assert loaded.nbytes == col.nbytes == 4 * 4 + object_nbytes(col.categories)
