"""Dask facade for the manually-ported baseline programs.

The paper had to rewrite programs by hand to run on Dask: forcing
computation before prints, avoiding position-based access, passing
dtypes to ``apply``, working around unsupported APIs.  The ``dask_body``
variants in :mod:`repro.workloads.programs` are those manual ports; they
import this module.  A collection is its partition nodes, run on the
current session's scheduler and engine.
"""

from __future__ import annotations

from repro.backends.dask_backend import DaskBackend
from repro.backends.dask_sim.frame import (
    DaskFrame,
    DaskSeries,
    from_pandas,
    scan_csv,
)
from repro.frame import DataFrame as _EagerFrame


def read_csv(path: str, usecols=None, index_col=None, **options) -> DaskFrame:
    """A lazy frame of one ``scan`` per partition.  The paper's
    incompatibility example is kept: Dask's ``read_csv`` has no
    ``index_col``, so the port issues a ``set_index`` after the read."""
    parts, columns = scan_csv(DaskBackend.partition_bytes, path, usecols,
                              **options)
    frame = DaskFrame(parts, columns=columns)
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def DataFrame(data) -> DaskFrame:
    return from_pandas(_EagerFrame(data))


def merge(left: DaskFrame, right, **kwargs) -> DaskFrame:
    return left.merge(right, **kwargs)


def concat(objs, ignore_index: bool = True) -> DaskFrame:
    frames = [
        obj if isinstance(obj, DaskFrame) else from_pandas(obj)
        for obj in objs
    ]
    return DaskFrame([part for frame in frames for part in frame.parts],
                     columns=frames[0].columns)


def to_datetime(series: DaskSeries) -> DaskSeries:
    return series._map("to_datetime")


__all__ = [
    "DataFrame", "concat", "merge", "read_csv", "to_datetime",
]
