"""Engine abstraction: capability descriptors + registry + instances.

The pre-Session runtime resolved backends through a module-level
``get_backend(name)`` that returned a *fresh* backend object whenever the
session's name changed -- fine for one program per process, wrong for
concurrent sessions (two sessions on the same name would still race on
any module-level state, and a session switching back to a backend lost
that backend's store).  This module replaces it:

- :class:`EngineSpec` describes a backend *kind*: its factory plus its
  partition cut policy (``out_of_core``: cut every plan, or only what
  exceeds the size limit) -- the shape of Dask's per-collection
  ``__dask_scheduler__`` hooks, but declared once per engine.  Every
  engine runs under every executor strategy: a backend's ``apply`` runs
  one node on eager values, so independent nodes may run concurrently.
- :class:`EngineRegistry` maps names to specs.  Sessions hold a registry
  reference (the shared :data:`DEFAULT_REGISTRY` unless injected), so
  tests can register simulated engines without touching global state.
- :class:`Engine` is one *instance*: a backend object private to the
  session that created it.  Two sessions never share an engine, which is
  what lets them run different backends concurrently.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.backends.base import Backend
from repro.registry import SpecRegistry


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """Static description of one execution engine kind."""

    name: str
    factory: Callable[[], Backend]
    #: the partition cut policy (:mod:`repro.core.optimizer.shuffle`):
    #: True cuts every plan per partition, so a budgeted run holds a
    #: partition at a time and spills through the shuffle stores; False
    #: cuts only the scans over the size limit that feed a merge or a
    #: group-by, so a plan that fits runs whole.
    out_of_core: bool = False
    description: str = ""


class Engine:
    """A per-session backend instance plus its capability descriptor."""

    __slots__ = ("spec", "backend")

    def __init__(self, spec: EngineSpec):
        self.spec = spec
        self.backend = spec.factory()

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine {self.name}>"


class EngineRegistry(SpecRegistry[EngineSpec]):
    """Name -> :class:`EngineSpec` lookup; sessions create instances."""

    noun, unknown_noun = "engine", "backend"

    def create(self, name: str) -> Engine:
        """A fresh engine instance (one backend object, never shared)."""
        return Engine(self.spec(name))


def _pandas_factory() -> Backend:
    from repro.backends.pandas_backend import PandasBackend

    return PandasBackend()


def _dask_factory() -> Backend:
    from repro.backends.dask_backend import DaskBackend

    return DaskBackend()


def _modin_factory() -> Backend:
    from repro.backends.modin_backend import ModinBackend

    return ModinBackend()


#: The stock registry with the paper's three engines (section 2.6).
DEFAULT_REGISTRY = EngineRegistry([
    EngineSpec(
        "pandas", _pandas_factory,
        description="eager, whole-frame; cut per partition over the limit",
    ),
    EngineSpec(
        "dask", _dask_factory,
        out_of_core=True,
        description="plans cut per partition, out-of-core with spilling",
    ),
    EngineSpec(
        "modin", _modin_factory,
        description="eager like pandas; cut per partition over the limit",
    ),
])
