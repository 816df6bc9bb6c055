"""Partitioned out-of-core dataframe engine (the Dask stand-in).

Reproduces the Dask properties the paper depends on:

- **lazy evaluation over a keyed per-partition graph**: a collection is
  one task-graph node per partition; nothing runs until ``compute()`` /
  ``persist()``, and a LaFP plan on the Dask engine is cut into the
  same per-partition nodes (:mod:`repro.core.optimizer.partitions`),
- **partitioned out-of-core execution**: CSVs are read in byte-range
  partitions, sized down under a memory budget; a budgeted run admits
  one partition's task at a time, and joins and holistic group-bys go
  through the spilling shuffle stores, so programs survive datasets
  larger than the simulated RAM budget (Figure 12),
- **its own optimizer**: column projection into reads and per-partition
  pipelines -- LaFP's optimizations *complement* these (section 2.6),
- **no global row order**: position-based indexing and global sorts
  are unsupported and fall back to pandas,
- **persist()**: keeps computed partitions resident for reuse.
"""

from repro.backends.dask_sim.frame import DaskFrame, DaskScalar, DaskSeries

__all__ = ["DaskFrame", "DaskScalar", "DaskSeries"]
