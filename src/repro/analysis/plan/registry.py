"""Analyzer registry: rule code -> :class:`RuleSpec`, the fourth
registry next to :class:`~repro.backends.engine.EngineRegistry`,
:class:`~repro.graph.scheduler.ExecutorRegistry` and
:class:`~repro.io.registry.SourceRegistry`.

A :class:`RuleSpec` binds a stable diagnostic code (``LFP001``) and rule
name (``unknown-column``) to a check function.  Checks receive one
:class:`~repro.analysis.plan.rules.AnalysisContext` -- the topologically
ordered plan, inferred schemas, consumer map -- and yield
:class:`~repro.analysis.plan.diagnostics.Diagnostic` objects.  Custom
lints register into :data:`DEFAULT_ANALYZERS` (or a private registry
handed to :func:`~repro.analysis.plan.rules.analyze_plan`) exactly like
custom engines, executor strategies and scan formats do.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional

from repro.analysis.plan.diagnostics import Diagnostic, Severity
from repro.registry import SpecRegistry

#: check(ctx) yields diagnostics; ctx is rules.AnalysisContext (kept
#: untyped here to avoid a circular import with the rules module).
CheckFn = Callable[..., Iterator[Diagnostic]]


@dataclasses.dataclass(frozen=True)
class RuleSpec:
    """Static description of one lint rule."""

    code: str                   # stable diagnostic code, e.g. "LFP001"
    rule: str                   # kebab-case rule name, e.g. "unknown-column"
    severity: Severity          # default severity for this rule's findings
    check: CheckFn
    description: str = ""
    #: session-wide rules (dead subgraph detection) only make sense when
    #: analyzing everything a session built, not one frame's plan.
    scope: str = "plan"         # "plan" | "session"

    def diagnostic(self, message: str, node: int, op: str, path: str,
                   severity: Optional[Severity] = None) -> Diagnostic:
        """Build a finding stamped with this rule's code and name."""
        return Diagnostic(
            code=self.code, rule=self.rule,
            severity=self.severity if severity is None else severity,
            message=message, node=node, op=op, path=path,
        )


class AnalyzerRegistry(SpecRegistry[RuleSpec]):
    """Diagnostic code -> :class:`RuleSpec` lookup."""

    key_attr = "code"
    noun = "analyzer rule"
    codes = SpecRegistry.names

    @staticmethod
    def _key(code) -> str:
        return str(code).upper()

    def rules(self, scope: Optional[str] = None) -> List[RuleSpec]:
        """Specs in code order; ``scope`` filters to rules that apply
        when analyzing a single plan vs a whole session."""
        specs = [self._specs[c] for c in self.codes()]
        if scope is None:
            return specs
        return [s for s in specs if s.scope == "plan" or s.scope == scope]


#: The stock registry; populated by repro.analysis.plan.rules on import.
DEFAULT_ANALYZERS = AnalyzerRegistry()
