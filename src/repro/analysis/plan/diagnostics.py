"""Diagnostics: what the static plan analyzer reports.

A :class:`Diagnostic` is one finding about one node of a task graph --
an unknown column, a provably mismatched merge, a pushdown opportunity
the plan shape blocks.  Diagnostics are *renderable* the same way plans
are (:func:`repro.graph.explain.render_plan`): nodes are referred to by
their deterministic topological number (``N3``), never by the global
node id, so the rendered text golden-tests cleanly.

Severities form a ladder:

- ``ERROR``   -- executing the plan will raise (or silently compute the
                 wrong thing); strict sessions refuse to run it,
- ``WARNING`` -- the plan runs but almost certainly not as intended
                 (dead subgraphs, suspicious shapes),
- ``HINT``    -- the plan is correct but leaves performance on the
                 table (blocked pushdown).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is meaningful (ERROR > WARNING)."""

    HINT = 10
    WARNING = 20
    ERROR = 30

    def render(self) -> str:
        return self.name.lower()


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a plan node.

    ``node`` is the deterministic plan number (``3`` renders as ``N3``)
    of the offending node; ``path`` is its plan-path context -- the
    rendered node line, dependencies included -- so a diagnostic is
    readable without the full plan next to it.
    """

    code: str          # e.g. "LFP001"
    rule: str          # e.g. "unknown-column"
    severity: Severity
    message: str
    node: int          # deterministic plan number (N<node>)
    op: str            # operator kind of the offending node
    path: str          # plan-path context: the rendered node line

    @property
    def is_error(self) -> bool:
        return self.severity >= Severity.ERROR

    def render(self) -> str:
        return (
            f"{self.code} {self.severity.render()} [{self.rule}] "
            f"{self.message}\n    at {self.path}"
        )

    def __str__(self) -> str:
        return self.render()


def sort_key(diag: Diagnostic):
    """Deterministic report order: plan position first, then severity
    (highest first), then code -- independent of the rules' order."""
    return (diag.node, -int(diag.severity), diag.code, diag.message)


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """The deterministic multi-line report (golden-testable)."""
    if not diagnostics:
        return "(no diagnostics)"
    ordered = sorted(diagnostics, key=sort_key)
    lines: List[str] = [d.render() for d in ordered]
    errors = sum(1 for d in ordered if d.severity >= Severity.ERROR)
    warnings = sum(1 for d in ordered if d.severity == Severity.WARNING)
    hints = sum(1 for d in ordered if d.severity == Severity.HINT)
    lines.append(
        f"{len(ordered)} diagnostic(s): "
        f"{errors} error(s), {warnings} warning(s), {hints} hint(s)"
    )
    return "\n".join(lines)


class PlanDiagnosticsWarning(UserWarning):
    """Emitted by ``collect()`` under ``analysis.level = "warn"`` when
    the analyzer finds error-severity diagnostics."""


class PlanValidationError(ValueError):
    """Raised by ``validate()`` / strict ``collect()`` on error-severity
    diagnostics -- *before* any partition is read.

    Carries the full diagnostic list (not just the errors) so callers
    can render everything the analyzer found.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: List[Diagnostic] = sorted(diagnostics, key=sort_key)
        errors = [d for d in self.diagnostics if d.is_error]
        summary = "; ".join(f"{d.code} {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors) - 3} more)"
        super().__init__(
            f"plan failed static analysis with {len(errors)} error(s): "
            f"{summary}"
        )

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def render(self) -> str:
        return render_diagnostics(self.diagnostics)
