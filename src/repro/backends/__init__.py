"""Execution backends for the LaFP task graph.

Three engines mirror the paper's setup:

- :class:`PandasBackend` -- eager, whole-frame, in-memory
  (:mod:`repro.frame` stands in for pandas),
- :class:`DaskBackend` -- plans cut per partition, out-of-core with
  spilling (:mod:`repro.backends.dask_sim` stands in for Dask),
- :class:`ModinBackend` -- eager like pandas for LaFP plans; baseline
  Modin mode's partitioned frames run as each op is built
  (:mod:`repro.backends.modin_sim` stands in for Modin on Ray).

All three run every node through the one dispatch,
:meth:`Backend.apply`, on :mod:`repro.frame`'s eager frames; they
differ only in how a plan is cut per partition before it runs, which
is where the paper's pandas fallback for Dask incompatibilities
(section 2.6) is decided.
"""

from types import MappingProxyType

from repro.backends.base import Backend, BackendUnsupported
from repro.backends.pandas_backend import PandasBackend
from repro.backends.dask_backend import DaskBackend
from repro.backends.modin_backend import ModinBackend

#: engine name (the ``backend.engine`` option) -> the engine's backend.
#: A backend holds no state, so one instance serves every session.
ENGINES = MappingProxyType({
    backend.name: backend()
    for backend in (PandasBackend, DaskBackend, ModinBackend)
})


__all__ = [
    "Backend",
    "BackendUnsupported",
    "DaskBackend",
    "ENGINES",
    "ModinBackend",
    "PandasBackend",
]
