"""Dtype model for the frame engine.

Supported logical dtypes:

========== ==============================================================
``int64``   NumPy int64
``float64`` NumPy float64 (also the NA-capable promotion of int64)
``bool``    NumPy bool
``object``  Python strings (NumPy object array); NA is ``None``
``datetime64[ns]`` NumPy datetime64[ns]; NA is ``NaT``
``category`` dictionary-encoded strings (section 3.6's space optimization)
========== ==============================================================

``category`` is not a NumPy dtype; it is represented by
:class:`CategoricalDtype` and stored as int32 codes plus a categories
array in :class:`repro.frame.column.Column`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

#: Estimated per-string heap overhead, mirroring CPython's ``str`` header.
#: Used for simulated memory accounting of object columns.
STRING_OVERHEAD = 49


class CategoricalDtype:
    """Dictionary-encoded string dtype.

    Parameters
    ----------
    categories:
        Optional fixed category values.  When ``None`` the categories are
        inferred from the data at construction time.
    """

    name = "category"

    def __init__(self, categories: Optional[Sequence[str]] = None):
        if categories is None:
            self.categories = None
        else:
            self.categories = np.asarray(list(categories), dtype=object)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n = "unordered" if self.categories is None else len(self.categories)
        return f"CategoricalDtype(categories={n})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            return other == "category"
        if isinstance(other, CategoricalDtype):
            if self.categories is None or other.categories is None:
                return self.categories is other.categories
            return bool(np.array_equal(self.categories, other.categories))
        return NotImplemented

    def __hash__(self) -> int:
        return hash("category")


DtypeLike = Union[str, type, np.dtype, CategoricalDtype]

_ALIASES = {
    "int": "int64",
    "int32": "int64",
    "integer": "int64",
    int: "int64",
    "float": "float64",
    "float32": "float64",
    float: "float64",
    "bool": "bool",
    bool: "bool",
    "str": "object",
    "string": "object",
    str: "object",
    "object": "object",
    "datetime64": "datetime64[ns]",
    "datetime64[ns]": "datetime64[ns]",
    "datetime": "datetime64[ns]",
}


def normalize_dtype(dtype: DtypeLike) -> Union[np.dtype, CategoricalDtype]:
    """Map a user-facing dtype spec to a canonical dtype object.

    >>> normalize_dtype("int")
    dtype('int64')
    >>> normalize_dtype("category").name
    'category'
    """
    if isinstance(dtype, CategoricalDtype):
        return dtype
    if isinstance(dtype, str) and dtype == "category":
        return CategoricalDtype()
    if dtype in _ALIASES:
        return np.dtype(_ALIASES[dtype])
    return np.dtype(dtype)


def is_categorical(dtype: object) -> bool:
    """True when ``dtype`` denotes the category dtype."""
    return isinstance(dtype, CategoricalDtype) or dtype == "category"


def is_numeric(dtype: object) -> bool:
    """True for int/float/bool NumPy dtypes."""
    return isinstance(dtype, np.dtype) and dtype.kind in "ifb"


def object_nbytes(values: np.ndarray) -> int:
    """Simulated in-memory footprint of an object (string) array.

    pandas object columns cost one pointer per row plus the Python string
    payloads; we charge ``8 + STRING_OVERHEAD + len(s)`` per element, which
    keeps wide string tables expensive exactly as the paper's datasets are.
    """
    total = 8 * values.size
    for value in values.ravel():
        if isinstance(value, str):
            total += STRING_OVERHEAD + len(value)
    return total


def array_nbytes(values: np.ndarray) -> int:
    """Simulated footprint of any backing array."""
    if values.dtype == object:
        return object_nbytes(values)
    return int(values.nbytes)
