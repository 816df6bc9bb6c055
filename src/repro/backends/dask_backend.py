"""Backend adapter for the Dask simulator.

A Dask-engine plan is the task graph cut per partition
(:mod:`repro.core.optimizer.partitions`): a scan becomes one ``scan``
per source partition and every op downstream per-partition copies,
partial aggregates and their combines, so this backend only ever sees
one partition's eager frame at a time -- "the API call is transformed
to the compatible API call for the selected lazy backend" (section
2.6), with the scheduler running the partitions, in parallel under the
pool strategies.  Ops Dask cannot run partition-wise read a ``concat``
of the pieces: the pandas fallback, decided when the plan is cut.

Baseline Dask mode (a program written against the Dask API) reads
through :meth:`DaskBackend.read_csv`, whose
:class:`~repro.backends.dask_sim.frame.DaskFrame` builds the same
per-partition nodes.  The paper's incompatibility example is kept:
``read_csv`` has no ``index_col`` on Dask, so the adapter issues a
``set_index`` after the read instead.
"""

from __future__ import annotations

from repro.backends.pandas_backend import PandasBackend

#: Target bytes of CSV per partition (scaled-down analogue of Dask's 64 MB).
DEFAULT_PARTITION_BYTES = 1 << 20


class DaskBackend(PandasBackend):
    """Partitioned out-of-core execution: eager per partition."""

    name = "dask"

    def __init__(self, partition_bytes: int = DEFAULT_PARTITION_BYTES):
        #: the partition target before a memory budget shrinks it
        #: (:func:`repro.core.optimizer.partitions.partition_bytes`)
        self.partition_bytes = partition_bytes

    def read_csv(self, path: str, usecols=None, index_col=None, **options):
        """The baseline Dask mode's user API: a lazy frame of one
        ``scan`` per partition (LaFP plans never call this)."""
        from repro.backends.dask_sim.frame import DaskFrame, scan_csv

        parts, columns = scan_csv(self, path, usecols, **options)
        frame = DaskFrame(parts, self, columns=columns)
        if index_col is not None:
            # Dask's read_csv lacks index_col; emulate via set_index.
            frame = frame.set_index(index_col)
        return frame

    # -- materialization ---------------------------------------------------
    # Defined here, not only inherited: the benchmark's tracer
    # (bench/spans.py) wraps each backend class's own methods.

    def materialize(self, value):
        return super().materialize(value)

    def persist(self, value):
        return super().persist(value)
