"""Forced computation for external-module calls (section 3.4, Figs 10-11).

External modules (matplotlib & friends) need materialized frames.  For
every call ``ext.fn(...)`` where ``ext`` was imported from outside the
lazy-safe set, each lazy-valued argument is wrapped::

    plt.plot(p_per_day)        ->  plt.plot(p_per_day.compute(live_df=[df]))

The ``live_df`` list is Live DataFrame Analysis' Out set at that
statement: the frames still needed afterwards, which the runtime will
persist if they share subexpressions with the computed graph
(section 3.5).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.scirpy.cfg import CFG
from repro.analysis.dataflow.framework import DataflowResult
from repro.analysis.dataflow.frames import Kind, expr_kind

_LAZY_KINDS = frozenset({Kind.FRAME, Kind.SERIES, Kind.SCALAR})


def apply_forced_compute(
    cfg: CFG,
    lda: DataflowResult,
    kinds: Dict[str, Kind],
    external_aliases: Set[str],
    pandas_alias,
) -> int:
    """Wrap lazy args of external calls; returns number of wraps."""
    if not external_aliases:
        return 0
    wraps = 0
    for stmt in cfg.statements():
        node = stmt.node
        if node is None:
            continue
        live_out = sorted(lda.stmt_out.get(stmt.id, frozenset()))
        for call in _external_calls(node, external_aliases):
            for i, arg in enumerate(call.args):
                if expr_kind(arg, kinds, pandas_alias) in _LAZY_KINDS:
                    call.args[i] = _wrap_compute(arg, live_out)
                    wraps += 1
            for kw in call.keywords:
                if expr_kind(kw.value, kinds, pandas_alias) in _LAZY_KINDS:
                    kw.value = _wrap_compute(kw.value, live_out)
                    wraps += 1
    return wraps


def _external_calls(node: ast.AST, external_aliases: Set[str]):
    """Calls rooted at an external module alias, e.g. ``plt.plot(...)``."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        root = _root_name(child.func)
        if root is not None and root in external_aliases:
            yield child


def _root_name(expr: ast.AST):
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _wrap_compute(arg: ast.AST, live_out: List[str]) -> ast.Call:
    live_list = ast.List(
        elts=[ast.Name(id=v, ctx=ast.Load()) for v in live_out],
        ctx=ast.Load(),
    )
    return ast.Call(
        func=ast.Attribute(value=arg, attr="compute", ctx=ast.Load()),
        args=[],
        keywords=[ast.keyword(arg="live_df", value=live_list)],
    )
