"""Engine abstraction: capability descriptors + registry + instances.

The pre-Session runtime resolved backends through a module-level
``get_backend(name)`` that returned a *fresh* backend object whenever the
session's name changed -- fine for one program per process, wrong for
concurrent sessions (two sessions on the same name would still race on
any module-level state, and a session switching back to a backend lost
that backend's store).  This module replaces it:

- :class:`EngineSpec` describes a backend *kind*: its factory plus the
  capability facts callers branch on (lazy vs eager, partitioned,
  out-of-core) -- the shape of Dask's per-collection
  ``__dask_scheduler__`` hooks, but declared once per engine.
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
    #: builds its own expression graph; materialization happens at roots.
    is_lazy: bool = False
    #: splits frames into row partitions.
    partitioned: bool = False
    #: can spill partitions to disk under memory pressure.
    out_of_core: bool = False
    #: ``backend.apply`` may run for independent nodes concurrently from
    #: scheduler worker threads.  Lazy simulators keep this False: their
    #: "apply" just extends a shared expression graph, so the threaded
    #: strategy would serialize on the store anyway.
    supports_parallel_apply: bool = False
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

    @property
    def is_lazy(self) -> bool:
        return self.spec.is_lazy

    @property
    def partitioned(self) -> bool:
        return self.spec.partitioned

    @property
    def out_of_core(self) -> bool:
        return self.spec.out_of_core

    @property
    def supports_parallel_apply(self) -> bool:
        return self.spec.supports_parallel_apply

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine {self.name} lazy={self.is_lazy}>"


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
        supports_parallel_apply=True,
        description="eager, whole-frame, in-memory",
    ),
    EngineSpec(
        "dask", _dask_factory,
        is_lazy=True, partitioned=True, out_of_core=True,
        description="lazy, partitioned, out-of-core with spilling",
    ),
    EngineSpec(
        "modin", _modin_factory,
        partitioned=True, supports_parallel_apply=True,
        description="eager, partitioned, in-memory",
    ),
])
