"""The static-analysis + rewrite pipeline (Figure 5's middle box).

``optimize_program`` is ``static_analysis_opt`` + ``SCIRPy_to_python_opt``
in one call: lower to SCIRPy, run the dataflow analyses, apply the
rewrites, and regenerate Python through region reconstruction.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Optional

from repro.analysis.scirpy.codegen import region_to_stmts
from repro.analysis.scirpy.lowering import lower_source
from repro.analysis.scirpy.regions import build_regions
from repro.analysis.dataflow.frames import module_aliases
from repro.analysis.dataflow.live_attributes import live_attributes
from repro.analysis.dataflow.live_dataframes import live_dataframes
from repro.analysis.dataflow.readonly import mutated_columns
from repro.analysis.dataflow.typeinfer import infer_kinds
from repro.analysis.rewrite.column_selection import apply_column_selection
from repro.analysis.rewrite.forced_compute import apply_forced_compute
from repro.analysis.rewrite.metadata_hints import apply_metadata_hints
from repro.analysis.rewrite.program_shell import rewrite_shell


@dataclasses.dataclass
class RewriteFlags:
    """Per-rewrite toggles (ablation knobs mirroring the runtime flags)."""

    column_selection: bool = True
    forced_compute: bool = True


@dataclasses.dataclass
class RewriteReport:
    """What the rewriter did (surfaced in tests and EXPERIMENTS.md)."""

    usecols_added: int = 0
    computes_inserted: int = 0
    metadata_hints: int = 0
    pandas_alias: Optional[str] = None


def optimize_program(
    source: str, flags: Optional[RewriteFlags] = None
) -> tuple[str, RewriteReport]:
    """Rewrite ``source``; returns (optimized source, report).

    Programs without a pandas import are returned unchanged -- there is
    nothing for LaFP to optimize.
    """
    flags = flags or RewriteFlags()
    report = RewriteReport()

    cfg, tree = lower_source(source)
    pandas_alias, external = module_aliases(tree)
    report.pandas_alias = pandas_alias
    if pandas_alias is None:
        return source, report

    kinds = infer_kinds(cfg, pandas_alias)

    if flags.column_selection:
        laa = live_attributes(cfg, kinds, pandas_alias)
        report.usecols_added = apply_column_selection(cfg, laa, pandas_alias)

    mutated = mutated_columns(cfg, kinds)
    report.metadata_hints = apply_metadata_hints(cfg, mutated, pandas_alias)

    if flags.forced_compute:
        lda = live_dataframes(cfg, kinds)
        report.computes_inserted = apply_forced_compute(
            cfg, lda, kinds, set(external), pandas_alias
        )

    region = build_regions(cfg)
    module = ast.Module(body=region_to_stmts(region), type_ignores=[])
    module = rewrite_shell(module, pandas_alias)
    return ast.unparse(module), report

