"""Column: the memory-accounted storage unit of the frame engine.

A :class:`Column` owns either

- a plain NumPy array (``int64`` / ``float64`` / ``bool`` / ``object`` /
  ``datetime64[ns]``), or
- a dictionary-encoded pair ``(codes: int32, categories: object)`` for the
  ``category`` dtype of section 3.6.

Every constructed column registers its simulated byte size with the global
:class:`repro.memory.MemoryManager`, which is how Figure 12 (programs that
run out of memory) and Figure 15 (peak memory) are reproduced.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.memory import TrackedBuffer
from repro.frame.dtypes import (
    CategoricalDtype,
    array_nbytes,
    is_categorical,
    normalize_dtype,
)

#: Code used for missing values in categorical columns.
NA_CODE = -1


def value_codes(values: np.ndarray):
    """``(codes, n)``: ``values`` as int64 codes below ``n``, equal
    exactly where the values are -- or ``None`` when equality is not the
    dtype's: an object array that holds anything but ``str`` / ``None``
    compares by its elements' own ``__eq__`` / ``__hash__``, which only
    hashing them asks.  NaN / NaT get a code like any value; a caller
    to whom they equal nothing masks them.

    Numbers sort (``np.unique``); strings go through a dict in order of
    first appearance, because sorting ``str`` objects costs more than
    the per-row loops this replaces -- here only the distinct cells
    meet a Python-level loop."""
    if values.dtype.kind in "iubfM":
        uniques, codes = np.unique(values, return_inverse=True)
        return codes.astype(np.int64, copy=False), len(uniques)
    if values.dtype.kind != "O":
        return None
    cells = values.tolist()
    if not set(map(type, cells)) <= {str, type(None)}:
        return None
    table = dict.fromkeys(cells)
    for code, cell in enumerate(table):
        table[cell] = code
    codes = np.fromiter(
        map(table.__getitem__, cells), dtype=np.int64, count=len(cells)
    )
    return codes, len(table)


class _HeapStore:
    """Shared heap payload (string bodies / category dictionaries).

    CPython shares ``str`` objects between an object array and any
    gather/filter copy of it, and categorical columns derived from the
    same source share one categories array.  Charging that payload once
    -- released when the last sharing column is collected -- keeps the
    simulated accounting honest for filter/take/merge chains.
    """

    __slots__ = ("nbytes", "_buffer", "__weakref__")

    def __init__(self, nbytes: int):
        self.nbytes = nbytes
        self._buffer = TrackedBuffer(nbytes)


class Column:
    """Immutable-by-convention column of values.

    Construct via :meth:`from_values` (which infers and normalizes dtype)
    or directly with a prepared array.  Operations return new columns; the
    frame layer never mutates a column's buffer in place except through
    ``setitem`` on a freshly copied column.

    Memory model: the column owns its flat buffer (8 B/row pointers for
    object arrays, raw bytes otherwise); heap payloads live in a
    :class:`_HeapStore` shared with derived columns (``shares=``).
    ``heap_nbytes`` is the size of the payload a column will own, when
    the caller already knows it (a pickle carries it).
    """

    __slots__ = ("values", "categories", "_buffer", "_store", "_owns_store")

    def __init__(
        self,
        values: np.ndarray,
        categories: Optional[np.ndarray] = None,
        shares: Optional[_HeapStore] = None,
        heap_nbytes: Optional[int] = None,
    ):
        self.values = values
        self.categories = categories
        if values.dtype == object:
            own = 8 * values.size
        else:
            own = int(values.nbytes)
        self._buffer = TrackedBuffer(own)
        if shares is not None:
            self._store = shares
            self._owns_store = False
        elif categories is not None or values.dtype == object:
            if heap_nbytes is None:
                heap_nbytes = (
                    array_nbytes(categories) if categories is not None
                    else array_nbytes(values) - own
                )
            self._store = _HeapStore(heap_nbytes)
            self._owns_store = True
        else:
            self._store = None
            self._owns_store = False

    # -- construction ----------------------------------------------------

    @classmethod
    def from_values(cls, data, dtype=None) -> "Column":
        """Build a column from any sequence, with optional dtype coercion."""
        if isinstance(data, Column):
            if dtype is None:
                return data
            return data.astype(dtype)
        if dtype is not None and is_categorical(normalize_dtype(dtype)):
            values = np.asarray(data, dtype=object)
            return cls.from_strings_as_category(values)
        if dtype is not None:
            arr = np.asarray(data, dtype=normalize_dtype(dtype))
        else:
            arr = cls._infer_array(data)
        return cls(arr)

    @staticmethod
    def _infer_array(data) -> np.ndarray:
        """Infer a canonical array from raw data (lists, arrays, scalars)."""
        arr = np.asarray(data)
        if arr.dtype.kind == "i":
            arr = arr.astype(np.int64, copy=False)
        elif arr.dtype.kind == "f":
            arr = arr.astype(np.float64, copy=False)
        elif arr.dtype.kind == "U":
            arr = arr.astype(object)
        elif arr.dtype.kind == "M":
            arr = arr.astype("datetime64[ns]", copy=False)
        return arr

    @classmethod
    def from_strings_as_category(cls, values: np.ndarray) -> "Column":
        """Dictionary-encode an object array of strings.

        ``None`` entries become the NA code.
        """
        mask = np.array([v is None for v in values], dtype=bool)
        filled = np.where(mask, "", values)
        categories, codes = np.unique(filled.astype(object), return_inverse=True)
        codes = codes.astype(np.int32)
        codes[mask] = NA_CODE
        return cls(codes, categories=categories)

    @classmethod
    def from_codes(cls, codes: np.ndarray, categories: np.ndarray) -> "Column":
        """Build a categorical column from prepared codes + categories."""
        return cls(codes.astype(np.int32, copy=False), categories=categories)

    # -- basic properties --------------------------------------------------

    @property
    def dtype(self) -> Union[np.dtype, CategoricalDtype]:
        if self.categories is not None:
            return CategoricalDtype(self.categories)
        return self.values.dtype

    @property
    def is_category(self) -> bool:
        return self.categories is not None

    @property
    def nbytes(self) -> int:
        """Simulated footprint (owned buffer plus owned heap payload)."""
        total = self._buffer.nbytes
        if self._store is not None and self._owns_store:
            total += self._store.nbytes
        return total

    def __len__(self) -> int:
        return len(self.values)

    def release(self) -> None:
        """Deregister this column's bytes (used when spilling to disk)."""
        self._buffer.release()
        if self._store is not None and self._owns_store:
            self._store._buffer.release()

    # -- materialization ---------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Dense object/ndarray view of the data (decoding categories)."""
        if self.categories is None:
            return self.values
        out = np.empty(len(self.values), dtype=object)
        valid = self.values != NA_CODE
        out[valid] = self.categories[self.values[valid]]
        out[~valid] = None
        return out

    # -- selection ---------------------------------------------------------

    def _derived(self, values: np.ndarray) -> "Column":
        """A column over ``values`` sharing this column's heap payload."""
        return Column(values, categories=self.categories, shares=self._store)

    def take(self, indices: np.ndarray) -> "Column":
        """Positional gather. Category encoding and payload are shared."""
        return self._derived(self.values[indices])

    def filter(self, mask: np.ndarray) -> "Column":
        """Boolean-mask selection. Encoding and payload are shared."""
        return self._derived(self.values[mask])

    def slice(self, start: Optional[int], stop: Optional[int], step: Optional[int] = None) -> "Column":
        return self._derived(self.values[slice(start, stop, step)].copy())

    # -- conversion ----------------------------------------------------------

    def astype(self, dtype) -> "Column":
        """Cast to another logical dtype."""
        target = normalize_dtype(dtype)
        if is_categorical(target):
            if self.is_category:
                return self
            return Column.from_strings_as_category(
                np.asarray(self.to_array(), dtype=object)
            )
        if self.is_category:
            return Column(self.to_array().astype(target))
        if target.kind == "O" and self.values.dtype.kind != "O":
            out = np.empty(len(self.values), dtype=object)
            out[:] = [str(v) for v in self.values]
            return Column(out)
        return Column(self.values.astype(target))

    # -- missing data ---------------------------------------------------------

    def isna(self) -> np.ndarray:
        """Boolean NA mask for any dtype."""
        if self.categories is not None:
            return self.values == NA_CODE
        kind = self.values.dtype.kind
        if kind == "f":
            return np.isnan(self.values)
        if kind == "M":
            return np.isnat(self.values)
        if kind == "O":
            return np.array([v is None for v in self.values], dtype=bool)
        return np.zeros(len(self.values), dtype=bool)

    def fillna(self, value) -> "Column":
        """Replace NA entries with ``value``."""
        mask = self.isna()
        if not mask.any():
            return self
        if self.categories is not None:
            decoded = self.to_array().copy()
            decoded[mask] = value
            return Column.from_strings_as_category(decoded)
        out = self.values.copy()
        if out.dtype.kind == "i":
            out = out  # int columns cannot hold NA; nothing to fill
        out[mask] = value
        return Column(out)

    def dropna_mask(self) -> np.ndarray:
        """Mask of rows to *keep* when dropping NA."""
        return ~self.isna()

    # -- stats helpers (used by metastore and describe) --------------------

    def unique_values(self) -> np.ndarray:
        if self.categories is not None:
            used = np.unique(self.values[self.values != NA_CODE])
            return self.categories[used]
        vals = self.values
        if vals.dtype.kind == "O":
            seen = {v for v in vals if v is not None}
            return np.asarray(sorted(seen), dtype=object)
        if vals.dtype.kind == "f":
            vals = vals[~np.isnan(vals)]
        return np.unique(vals)

    def nunique(self) -> int:
        return len(self.unique_values())

    def copy(self) -> "Column":
        return self._derived(self.values.copy())

    @staticmethod
    def concat(columns: "list[Column]") -> "Column":
        """Concatenate columns, preserving dictionary encoding.

        When every piece is categorical the result stays categorical
        (categories unioned, codes remapped) -- decoding would blow up
        memory for exactly the data category dtype exists to compress.
        """
        if all(c.categories is not None for c in columns):
            merged = np.unique(np.concatenate([c.categories for c in columns]))
            remapped = []
            for col in columns:
                lookup = np.searchsorted(merged, col.categories)
                codes = col.values.copy()
                valid = codes != NA_CODE
                codes[valid] = lookup[codes[valid]].astype(np.int32)
                remapped.append(codes)
            return Column.from_codes(np.concatenate(remapped), merged)
        from repro.frame.concat import _stack

        return Column(_stack([c.to_array() for c in columns]))

    # -- pickling (spill-to-disk support) -----------------------------------

    def __getstate__(self) -> dict:
        # an owned payload travels with its byte count, so loading does
        # not walk the strings again
        return {
            "values": self.values,
            "categories": self.categories,
            "heap_nbytes": self._store.nbytes if self._owns_store else None,
        }

    def __setstate__(self, state: dict) -> None:
        # Re-register bytes with the memory manager on load.
        self.__init__(
            state["values"],
            categories=state["categories"],
            heap_nbytes=state.get("heap_nbytes"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column(dtype={self.dtype}, len={len(self)})"
