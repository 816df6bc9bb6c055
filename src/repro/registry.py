"""The one key -> spec registry behind the four pluggable seams
(:class:`~repro.backends.engine.EngineRegistry`,
:class:`~repro.graph.scheduler.ExecutorRegistry`,
:class:`~repro.io.registry.SourceRegistry`,
:class:`~repro.analysis.plan.registry.AnalyzerRegistry`)."""

from __future__ import annotations

from typing import Dict, Generic, Iterable, List, Optional, TypeVar

S = TypeVar("S")


class SpecRegistry(Generic[S]):
    """Case-insensitive key -> spec lookup.

    A subclass says which spec attribute is the key, how keys are
    normalised, and what its error messages call an entry; everything
    else -- the duplicate check, lookup, listing -- lives here once.
    """

    #: the spec attribute that holds its key.
    key_attr = "name"
    #: what "... already registered" / "unknown ..." call an entry.
    noun = "entry"
    unknown_noun: Optional[str] = None

    def __init__(self, specs: Iterable[S] = ()):
        self._specs: Dict[str, S] = {}
        for spec in specs:
            self.register(spec)

    @staticmethod
    def _key(name) -> str:
        return str(name).lower()

    def register(self, spec: S, replace: bool = False) -> S:
        name = getattr(spec, self.key_attr)
        key = self._key(name)
        if key in self._specs and not replace:
            raise ValueError(f"{self.noun} {name!r} already registered")
        self._specs[key] = spec
        return spec

    def unregister(self, name: str) -> None:
        self._specs.pop(self._key(name), None)

    def spec(self, name: str) -> S:
        key = self._key(name)
        if key not in self._specs:
            raise ValueError(
                f"unknown {self.unknown_noun or self.noun} {name!r}; "
                f"choose from {self.names()}"
            )
        return self._specs[key]

    def get(self, name: str) -> Optional[S]:
        return self._specs.get(self._key(name))

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._specs
