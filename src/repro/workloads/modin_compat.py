"""Modin facade for baseline runs.

The paper notes running pandas programs on Modin "is straightforward,
with the only change required being to an import statement"; this module
is that import target.  Frames are eager and partitioned
(:mod:`repro.backends.modin_sim`); there is no spilling.
"""

from __future__ import annotations

from repro.backends.dask_sim.frame import from_pandas
from repro.backends.modin_backend import DEFAULT_PARTITION_BYTES, ModinBackend
from repro.backends.modin_sim.frame import (
    ModinFrame,
    ModinSeries,
    modin_read_csv,
)
from repro.frame import DataFrame as _EagerFrame
from repro.frame import concat as _eager_concat
from repro.frame import to_datetime as _eager_to_datetime


def _split(frame: _EagerFrame) -> ModinFrame:
    """An eager frame in pieces of about the partition size."""
    backend = ModinBackend()
    pieces = max(1, frame.nbytes // DEFAULT_PARTITION_BYTES)
    return ModinFrame(from_pandas(frame, backend, int(pieces)).parts, backend)


def read_csv(path: str, **kwargs) -> ModinFrame:
    return modin_read_csv(path, DEFAULT_PARTITION_BYTES, **kwargs)


def DataFrame(data) -> ModinFrame:
    return _split(_EagerFrame(data))


def merge(left: ModinFrame, right, **kwargs) -> ModinFrame:
    return left.merge(right, **kwargs)


def concat(objs, ignore_index: bool = True) -> ModinFrame:
    eager = [
        o.to_pandas() if isinstance(o, (ModinFrame, ModinSeries)) else o
        for o in objs
    ]
    return _split(_eager_concat(eager, ignore_index=ignore_index))


def to_datetime(series):
    if isinstance(series, ModinSeries):
        return series._map("to_datetime")
    return _eager_to_datetime(series)


__all__ = ["DataFrame", "concat", "merge", "read_csv", "to_datetime"]
