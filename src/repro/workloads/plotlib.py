"""External plotting module (the matplotlib stand-in, section 3.4).

Like matplotlib, this module **requires materialized data**: it accepts
eager frames/series/arrays/scalars and refuses lazy wrappers.  Plotting a
frame allocates a full working copy (matplotlib converts inputs to dense
arrays), which is what makes the `emp` program's plot of a huge frame
fail even on the out-of-core backend in Figure 12.

``pyplot`` mirrors the ``import matplotlib.pyplot as plt`` shape so the
static rewriter sees an ordinary external module.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.frame import DataFrame, Series
from repro.frame.column import Column
from repro.workloads.paths import remove_stale

#: every figure's rendered "canvas" adds this many simulated bytes.
_CANVAS_BYTES = 1 << 16


class _PlotState:
    def __init__(self):
        self.artists: List[object] = []
        self.saved: List[str] = []

    def reset(self):
        self.artists.clear()
        self.saved.clear()


state = _PlotState()


def _require_materialized(data):
    from repro.core.lazyframe import LazyObject

    if isinstance(data, LazyObject):
        raise TypeError(
            "plotlib requires materialized data; call .compute() first "
            "(lazy frameworks must force computation before external "
            "function calls)"
        )
    if isinstance(data, (DataFrame, Series)):
        return data
    to_pandas = getattr(data, "to_pandas", None)
    if to_pandas is not None:
        # Eager partitioned (Modin) input -- a Dask collection too, but
        # computed: a real renderer densifies it, materializing the
        # whole frame -- that allocation is the point.
        return to_pandas()
    if hasattr(data, "compute"):
        raise TypeError(
            "plotlib requires an eager pandas-like object, got lazy "
            f"{type(data).__name__}; call .compute() first"
        )
    return data


def _densify_copy(data):
    """Allocate the dense working copy a real renderer would.

    Numeric data densifies to float arrays (cheap); strings and
    categoricals decode to full object arrays (expensive) -- plotting a
    wide string-laden frame is what kills `emp` at the largest size.
    """
    if isinstance(data, DataFrame):
        return {
            name: _dense_column(data.column(name)) for name in data.columns
        }
    if isinstance(data, Series):
        return _dense_column(data.column)
    if isinstance(data, np.ndarray):
        return Column(data.copy())
    return data


def _dense_column(col: Column) -> Column:
    if not col.is_category and col.values.dtype.kind in "ifb":
        return Column(col.values.astype(np.float64))
    if not col.is_category and col.values.dtype.kind == "M":
        return Column(col.values.view("int64").astype(np.float64))
    return Column(np.array(col.to_array(), dtype=object))


def plot(*args, **kwargs) -> None:
    """Record a line plot of the given (materialized) data."""
    copies = [
        _densify_copy(_require_materialized(a))
        for a in args
        if not isinstance(a, str)
    ]
    state.artists.append(("plot", copies))


def bar(*args, **kwargs) -> None:
    """Record a bar chart."""
    copies = [
        _densify_copy(_require_materialized(a))
        for a in args
        if not isinstance(a, str)
    ]
    state.artists.append(("bar", copies))


def hist(data, bins: int = 10, **kwargs) -> None:
    """Record a histogram."""
    state.artists.append(("hist", [_densify_copy(_require_materialized(data))]))


def savefig(path: str) -> None:
    """Render to ``path`` (writes a small placeholder file)."""
    canvas = Column(np.zeros(_CANVAS_BYTES // 8, dtype=np.int64))
    remove_stale(path)
    with open(path, "w") as f:
        f.write(f"figure with {len(state.artists)} artists\n")
    state.saved.append(path)
    state.artists.clear()
    del canvas


def close(fig=None) -> None:
    state.artists.clear()


class pyplot:
    """Namespace mirror so ``from repro.workloads import plotlib`` and
    ``plotlib.pyplot`` both work like matplotlib's layout."""

    plot = staticmethod(plot)
    bar = staticmethod(bar)
    hist = staticmethod(hist)
    savefig = staticmethod(savefig)
    close = staticmethod(close)
