"""Reproduction of *Efficient Dataframe Systems: Lazy Fat Pandas on a Diet*.

The package is organised bottom-up:

- :mod:`repro.memory` -- simulated memory budget (stands in for the paper's
  32 GB machine so out-of-memory behaviour is reproducible at laptop scale).
- :mod:`repro.frame` -- an eager columnar dataframe engine (the pandas
  stand-in; pandas is not available offline).
- :mod:`repro.backends` -- partitioned lazy (Dask-like) and partitioned
  eager (Modin-like) execution engines.
- :mod:`repro.metastore` -- per-file metadata and statistics (section 3.6).
- :mod:`repro.graph` / :mod:`repro.core` -- the LaFP task graph, lazy
  wrapper frames, and the runtime optimizer (sections 2.5-2.6, 3.2-3.5).
- :mod:`repro.lazyfatpandas` -- the user-facing facade from Figure 2
  (``import repro.lazyfatpandas.pandas as pd``; ``pd.analyze()``).
- :mod:`repro.analysis` -- the JIT static-analysis framework: SCIRPy IR,
  CFG, dataflow (live attribute / live dataframe analysis), program
  rewriting and codegen (sections 2.1-2.4, 3.1).
- :mod:`repro.workloads` -- the ten benchmark programs, dataset generators
  and the measurement runner used by ``benchmarks/``.
"""

__version__ = "0.1.0"

from repro.memory import MemoryManager, SimulatedMemoryError

#: top-level source-layer constructors, resolved lazily (PEP 562) so
#: ``import repro`` stays light and free of circular imports -- the scan
#: API pulls in the whole core/graph/backends stack.
_SCAN_API = (
    "scan_csv", "scan_jsonl", "scan_dataset", "scan_source", "from_pandas",
)

__all__ = [
    "MemoryManager",
    "SimulatedMemoryError",
    "__version__",
    *_SCAN_API,
]


def __getattr__(name: str):
    if name in _SCAN_API:
        import repro.io.api as _api

        return getattr(_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
