"""Backend adapter for the Modin simulator.

Eager execution: each LaFP node materializes a :class:`ModinFrame` /
:class:`ModinSeries` immediately.  Because the backend cannot optimize
across nodes, LaFP's own optimizations carry all the benefit here
(section 2.6: "the backend cannot perform optimization across nodes, and
thus LaFP optimizations are even more important").
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.modin_sim.frame import (
    ModinFrame,
    ModinSeries,
    _resplit,
    _split_series,
    modin_read_csv,
)
from repro.frame import DataFrame, Series, concat, to_datetime

#: Scaled-down analogue of Modin's default partition sizing.
DEFAULT_PARTITION_BYTES = 1 << 20


class ModinBackend(Backend):
    """Eager partitioned execution (thread-pool workers, no spilling)."""

    name = "modin"

    def __init__(self, partition_bytes: int = DEFAULT_PARTITION_BYTES):
        self.partition_bytes = partition_bytes

    def read_csv(self, path: str, **kwargs) -> ModinFrame:
        """The baseline Modin mode's user API (LaFP plans never call
        this; they carry ``scan`` nodes)."""
        return modin_read_csv(path, self.partition_bytes, **kwargs)

    def from_data(self, data, **kwargs) -> ModinFrame:
        return self.from_pandas(DataFrame(data))

    def from_pandas(self, value):
        if isinstance(value, Series):
            return _split_series(value, [len(value)])
        if isinstance(value, DataFrame):
            nparts = max(1, value.nbytes // self.partition_bytes)
            return _resplit(value, int(nparts))
        return value

    def to_datetime(self, series):
        if isinstance(series, Series):
            return to_datetime(series)
        return series._map(to_datetime)

    def concat(self, frames):
        eager = [
            f.to_pandas() if isinstance(f, (ModinFrame, ModinSeries)) else f
            for f in frames
        ]
        return self.from_pandas(concat(eager))

    def materialize(self, value):
        if isinstance(value, (ModinFrame, ModinSeries)):
            return value.to_pandas()
        return value

    def persist(self, value):
        return value  # everything is already memory-resident
