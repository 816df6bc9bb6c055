"""The Dask engine: every plan cut per partition.

A Dask-engine plan is the task graph cut per partition
(:mod:`repro.core.optimizer.partitions`): a scan becomes one ``scan``
per source partition and every op downstream per-partition copies,
partial aggregates and their combines, so a node only ever computes on
one partition's eager frame -- "the API call is transformed to the
compatible API call for the selected lazy backend" (section 2.6), with
the scheduler running the partitions, in parallel under the pool
strategies.  Ops Dask cannot run partition-wise read a ``concat`` of
the pieces: the pandas fallback, decided when the plan is cut.

Baseline Dask mode (a program written against the Dask API) reads
through :func:`repro.workloads.dask_compat.read_csv`, whose
:class:`~repro.backends.dask_sim.frame.DaskFrame` builds the same
per-partition nodes.
"""

from __future__ import annotations

from repro.backends.pandas_backend import PandasBackend


class DaskBackend(PandasBackend):
    """Partitioned out-of-core execution: eager per partition."""

    name = "dask"
    out_of_core = True

    # -- materialization ---------------------------------------------------
    # Defined here, not only inherited: the benchmark's tracer
    # (bench/spans.py) wraps each backend class's own methods.

    def materialize(self, value):
        return super().materialize(value)

    def persist(self, value):
        return super().persist(value)
