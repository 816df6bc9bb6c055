"""JIT static-analysis framework (sections 2.1-2.4, 3.1, 3.5, 3.6).

The paper uses Soot with a Python-compatible IR called SCIRPy; this
package is the from-scratch equivalent:

- :mod:`repro.analysis.scirpy` -- Python AST -> SCIRPy IR (flat statements
  grouped into basic blocks), CFG construction, dominators, region
  reconstruction (Hecht-Ullman style structural analysis), and IR ->
  Python codegen.
- :mod:`repro.analysis.dataflow` -- a generic iterative dataflow solver,
  live-variable analysis, **live attribute analysis** (the paper's LAA,
  equations (1)-(4)), **live dataframe analysis** (LDA), dataframe type
  inference, and read-only column analysis.
- :mod:`repro.analysis.rewrite` -- the source-to-source transformations:
  column selection (``usecols``), lazy-print installation + ``pd.flush``,
  forced computation with ``live_df=[...]`` for external-module calls,
  and metadata/read-only hints.
- :mod:`repro.analysis.jit` -- ``pd.analyze()``: reflection on the caller,
  rewrite, execute-optimized-instead (Figure 5).
- :mod:`repro.analysis.plan` -- the same analyze-first budget applied to
  the task graph: per-node schema inference, the ``RULES`` table of
  lint rules (LFP001..), and the ``analysis.level`` collect gate.
"""

from repro.analysis.jit import jit_analyze, optimize_source

__all__ = ["jit_analyze", "optimize_source"]
