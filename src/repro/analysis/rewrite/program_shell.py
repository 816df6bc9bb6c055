"""Module-shell edits: imports, lazy print, analyze removal, flush.

Applied to the regenerated module AST after the statement-level rewrites:

- ``import pandas as pd`` becomes the LaFP facade import (so plain-pandas
  programs run under LaFP untouched -- section 5.2's "any backend without
  any program rewrite"),
- ``from repro.lazyfatpandas.func import print`` installs lazy print
  (Figure 8 line 2),
- the ``pd.analyze()`` call is removed (the optimized program must not
  re-analyze itself),
- ``pd.flush()`` is appended as the final statement (Figure 8 line 10).
"""

from __future__ import annotations

import ast
from typing import Optional

_FACADE = "repro.lazyfatpandas.pandas"
_FUNC_MODULE = "repro.lazyfatpandas.func"


def rewrite_shell(module: ast.Module, pandas_alias: Optional[str]) -> ast.Module:
    body = list(module.body)

    body = [_rewrite_import(stmt) for stmt in body]
    body = [
        stmt
        for stmt in body
        if not _is_analyze_call(stmt, pandas_alias)
    ]

    insert_at = _after_imports(body)
    body.insert(insert_at, _lazy_print_import())

    if pandas_alias is not None:
        body.append(
            ast.Expr(
                value=ast.Call(
                    func=ast.Attribute(
                        value=ast.Name(id=pandas_alias, ctx=ast.Load()),
                        attr="flush",
                        ctx=ast.Load(),
                    ),
                    args=[],
                    keywords=[],
                )
            )
        )

    return ast.Module(body=body, type_ignores=[])


def _rewrite_import(stmt: ast.stmt) -> ast.stmt:
    if isinstance(stmt, ast.Import):
        for item in stmt.names:
            if item.name == "pandas":
                item.name = _FACADE
                if item.asname is None:
                    item.asname = "pandas"
            elif item.name == "lazyfatpandas.pandas":
                item.name = _FACADE
    return stmt


def _is_analyze_call(stmt: ast.stmt, pandas_alias: Optional[str]) -> bool:
    if pandas_alias is None or not isinstance(stmt, ast.Expr):
        return False
    call = stmt.value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "analyze"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == pandas_alias
    )


def _after_imports(body) -> int:
    index = 0
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            index = i + 1
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            index = i + 1  # docstring
        else:
            break
    return index


def _lazy_print_import() -> ast.ImportFrom:
    return ast.ImportFrom(
        module=_FUNC_MODULE,
        names=[ast.alias(name="print", asname=None)],
        level=0,
    )
