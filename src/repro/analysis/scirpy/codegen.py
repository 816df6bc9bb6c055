"""Codegen: program regions -> Python source.

Regions reassemble AST statements: structured headers contribute their
test / loop clauses, bodies come from the (possibly rewritten) IR
statements.  ``ast.unparse`` produces the final source, so the optimized
program is ordinary Python (the paper's "optimized IR is converted back
to Python code").
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.scirpy.cfg import CFG
from repro.analysis.scirpy.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SequenceRegion,
    build_regions,
)


def cfg_to_source(cfg: CFG) -> str:
    """Rebuild Python source from a (possibly rewritten) CFG."""
    region = build_regions(cfg)
    body = region_to_stmts(region)
    return ast.unparse(ast.Module(body=body or [ast.Pass()], type_ignores=[]))


def region_to_stmts(region: Optional[Region]) -> List[ast.stmt]:
    if region is None:
        return []
    if isinstance(region, BlockRegion):
        return [s.node for s in region.stmts if not s.deleted and s.node is not None]
    if isinstance(region, SequenceRegion):
        out: List[ast.stmt] = []
        for item in region.items:
            out.extend(region_to_stmts(item))
        return out
    if isinstance(region, IfRegion):
        header = region.header.node
        then_body = region_to_stmts(region.then) or [ast.Pass()]
        else_body = region_to_stmts(region.orelse)
        return [ast.If(test=header.test, body=then_body, orelse=else_body)]
    if isinstance(region, LoopRegion):
        header = region.header.node
        body = region_to_stmts(region.body) or [ast.Pass()]
        if region.header.loop_kind == "while":
            return [ast.While(test=header.test, body=body, orelse=[])]
        # ast.unparse reads a for loop's line (its type-comment lookup);
        # of the statements rebuilt here only the loop needs one
        return [ast.copy_location(ast.For(
            target=header.target,
            iter=header.iter,
            body=body,
            orelse=[],
        ), header)]
    raise TypeError(f"unknown region type {type(region).__name__}")
