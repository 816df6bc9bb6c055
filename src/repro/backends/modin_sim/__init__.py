"""Eager partitioned dataframe engine (the Modin stand-in).

Reproduces the Modin properties that matter to the paper:

- **eager evaluation**: every operation runs as soon as it is called
  (so LaFP's cross-operation optimizations matter *more* here --
  section 2.6),
- **row partitioning**: a frame is Dask's per-partition collection
  (:mod:`repro.backends.dask_sim`), its pieces run on the session's
  scheduler -- in parallel under the threaded strategy,
- **Arrow-like storage**: string columns are dictionary-encoded on read,
  which is why Modin survives a few more programs than pandas in
  Figure 12 despite being equally memory-bound,
- **no spilling**: everything must fit in (simulated) memory.
"""

from repro.backends.modin_sim.frame import ModinFrame, ModinSeries, modin_read_csv

__all__ = ["ModinFrame", "ModinSeries", "modin_read_csv"]
