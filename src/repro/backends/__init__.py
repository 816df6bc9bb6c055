"""Execution backends for the LaFP task graph.

Three backends mirror the paper's setup:

- :class:`PandasBackend` -- eager, whole-frame, in-memory
  (:mod:`repro.frame` stands in for pandas),
- :class:`DaskBackend` -- plans cut per partition, out-of-core with
  spilling (:mod:`repro.backends.dask_sim` stands in for Dask),
- :class:`ModinBackend` -- eager like pandas for LaFP plans; baseline
  Modin mode's partitioned frames run as each op is built
  (:mod:`repro.backends.modin_sim` stands in for Modin on Ray).

All three consume the same operator nodes; ops a backend cannot express
fall back to "convert to pandas, run, convert back" exactly as the paper
describes for Dask incompatibilities (section 2.6).
"""

from types import MappingProxyType

from repro.backends.base import Backend, BackendUnsupported, apply_generic
from repro.backends.pandas_backend import PandasBackend
from repro.backends.dask_backend import DaskBackend
from repro.backends.modin_backend import ModinBackend

#: engine name (the ``backend.engine`` option) -> backend class; a
#: session builds one instance of each engine it runs.
ENGINES = MappingProxyType({
    backend.name: backend
    for backend in (PandasBackend, DaskBackend, ModinBackend)
})


__all__ = [
    "Backend",
    "BackendUnsupported",
    "DaskBackend",
    "ENGINES",
    "ModinBackend",
    "PandasBackend",
    "apply_generic",
]
