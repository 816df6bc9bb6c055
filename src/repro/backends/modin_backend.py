"""The Modin engine.

A LaFP plan on the Modin engine runs eager, node by node, like one on
pandas: the backend "cannot perform optimization across nodes, and thus
LaFP optimizations are even more important" (section 2.6).  The plan is
cut per partition only where the size gate cuts it
(:attr:`~repro.backends.base.Backend.out_of_core` is False), on
the session's scheduler.

Baseline Modin mode (a pandas program with Modin's import swap) reads
through :func:`repro.backends.modin_sim.frame.modin_read_csv`, whose
:class:`~repro.backends.modin_sim.frame.ModinFrame` is baseline Dask
mode's per-partition collection, run as each op is built.
"""

from __future__ import annotations

from repro.backends.pandas_backend import PandasBackend


class ModinBackend(PandasBackend):
    """Eager execution, partitioned only by the size gate; no spilling."""

    name = "modin"

    # -- materialization ---------------------------------------------------
    # Defined here, not only inherited: the benchmark's tracer
    # (bench/spans.py) wraps each backend class's own methods.

    def materialize(self, value):
        return super().materialize(value)

    def persist(self, value):
        return super().persist(value)
