"""Eager whole-frame backend (the pandas stand-in).

Every operator maps 1:1 onto :mod:`repro.frame`; nothing is partitioned or
deferred.  Fastest for data that fits in memory (Figure 13), first to die
when it does not (Figure 12).
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.frame import DataFrame, Series, concat, read_csv, to_datetime


class PandasBackend(Backend):
    """Direct execution on the eager frame engine."""

    name = "pandas"
    is_lazy = False

    def read_csv(self, path, **kwargs):
        """The eager engine's own reader (a ``scan`` node never comes here)."""
        return read_csv(path, **kwargs)

    def from_data(self, data, **kwargs):
        return DataFrame(data)

    def to_datetime(self, series: Series) -> Series:
        return to_datetime(series)

    def concat(self, frames):
        return concat(frames)

    def materialize(self, value):
        return value

    def persist(self, value):
        return value
