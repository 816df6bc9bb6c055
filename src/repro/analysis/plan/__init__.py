"""Static plan analysis: schema inference + lint rules over task graphs.

The *plan* analyzer is the runtime complement to the source-level
analysis in :mod:`repro.analysis` (scirpy IR / dataflow / JIT): instead
of rewriting Python source, it inspects the already-built lazy task
graph before execution -- inferring per-node schemas and reporting
:class:`Diagnostic` findings (unknown columns, mismatched merge keys,
dead work, blocked pushdowns) deterministically.

Entry points:

- :func:`analyze_plan` -- run the lint rules over a plan's roots,
- :func:`infer_schemas` -- the forward schema pass on its own (also
  consumed by ``graph/scheduler/estimates.py`` for byte estimates),
- :data:`RULES` -- the lint rules (:class:`RuleSpec`), in code order;
  :func:`rule` looks one up by its code.

Users reach this layer through ``LazyFrame.validate()``,
``explain(diagnostics=True)``, the ``analysis.level`` session option,
and the workloads CLI's ``lint`` command.
"""

from repro.analysis.plan.diagnostics import (
    Diagnostic,
    PlanValidationError,
    Severity,
    render_diagnostics,
)
from repro.analysis.plan.rules import (
    RULES,
    AnalysisContext,
    RuleSpec,
    analyze_plan,
    rule,
)
from repro.analysis.plan.schema import (
    SCHEMA_RULES,
    NodeSchema,
    infer_schemas,
    infer_schemas_for_roots,
)

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "NodeSchema",
    "PlanValidationError",
    "RULES",
    "RuleSpec",
    "SCHEMA_RULES",
    "Severity",
    "analyze_plan",
    "infer_schemas",
    "infer_schemas_for_roots",
    "render_diagnostics",
    "rule",
]
