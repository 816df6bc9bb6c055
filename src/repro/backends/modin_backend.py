"""Backend adapter for the Modin engine.

A LaFP plan on the Modin engine runs eager, node by node, like one on
pandas: the backend "cannot perform optimization across nodes, and thus
LaFP optimizations are even more important" (section 2.6).  The plan is
cut per partition only where the size gate cuts it
(:attr:`~repro.backends.base.Backend.out_of_core` is False), on
the session's scheduler.

Baseline Modin mode (a pandas program with Modin's import swap) reads
through :meth:`ModinBackend.read_csv`, whose
:class:`~repro.backends.modin_sim.frame.ModinFrame` is baseline Dask
mode's per-partition collection, run as each op is built.
"""

from __future__ import annotations

from repro.backends.pandas_backend import PandasBackend

#: Scaled-down analogue of Modin's default partition sizing.
DEFAULT_PARTITION_BYTES = 1 << 20


class ModinBackend(PandasBackend):
    """Eager execution, partitioned only by the size gate; no spilling."""

    name = "modin"

    def __init__(self, partition_bytes: int = DEFAULT_PARTITION_BYTES):
        #: the baseline reads' partition target before a memory budget
        #: shrinks it (:func:`repro.core.optimizer.partitions.partition_bytes`)
        self.partition_bytes = partition_bytes

    def read_csv(self, path: str, **kwargs):
        """The baseline Modin mode's user API: an eager frame of one
        piece per partition (LaFP plans never call this)."""
        from repro.backends.modin_sim.frame import modin_read_csv

        return modin_read_csv(path, self.partition_bytes, **kwargs)

    # -- materialization ---------------------------------------------------
    # Defined here, not only inherited: the benchmark's tracer
    # (bench/spans.py) wraps each backend class's own methods.

    def materialize(self, value):
        return super().materialize(value)

    def persist(self, value):
        return super().persist(value)
