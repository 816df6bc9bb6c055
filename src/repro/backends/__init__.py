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

from repro.backends.base import Backend, BackendUnsupported, apply_generic
from repro.backends.pandas_backend import PandasBackend
from repro.backends.dask_backend import DaskBackend
from repro.backends.modin_backend import ModinBackend
from repro.backends.engine import (
    DEFAULT_REGISTRY,
    Engine,
    EngineRegistry,
    EngineSpec,
)


def get_backend(name: str) -> Backend:
    """Instantiate a standalone backend by name (registry-backed).

    Sessions resolve engines through their own :class:`EngineRegistry`;
    this helper remains for code that needs a throwaway backend object.
    """
    return DEFAULT_REGISTRY.create(name).backend


__all__ = [
    "Backend",
    "BackendUnsupported",
    "DEFAULT_REGISTRY",
    "DaskBackend",
    "Engine",
    "EngineRegistry",
    "EngineSpec",
    "ModinBackend",
    "PandasBackend",
    "apply_generic",
    "get_backend",
]
