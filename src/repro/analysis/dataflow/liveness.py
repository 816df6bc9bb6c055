"""Classic live-variable analysis (LVA) -- the textbook backward analysis
LAA extends (section 2.3)."""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Set, Tuple

from repro.analysis.scirpy.cfg import CFG
from repro.analysis.scirpy.ir import IRStmt, StmtKind
from repro.analysis.dataflow.framework import DataflowResult, solve_backward

Fact = FrozenSet[str]


def live_variables(cfg: CFG) -> DataflowResult:
    """Solve LVA; facts are plain variable names.  Each statement's
    gen/kill sets are computed once per solve, not once per fixpoint
    iteration."""
    gen_kill: Dict[int, Tuple[Fact, Fact]] = {}

    def transfer(stmt: IRStmt, out: Fact) -> Fact:
        sets = gen_kill.get(stmt.id)
        if sets is None:
            gen, kill = stmt_gen_kill(stmt)
            sets = gen_kill[stmt.id] = (frozenset(gen), frozenset(kill))
        return sets[0] | (out - sets[1])

    return solve_backward(cfg, transfer)


def stmt_gen_kill(stmt: IRStmt):
    """(used names, defined names) of one IR statement."""
    node = stmt.node
    gen: Set[str] = set()
    kill: Set[str] = set()
    if node is None or stmt.kind == StmtKind.EXIT:
        return gen, kill
    if stmt.kind == StmtKind.BRANCH:
        gen |= _names(node.test)
        return gen, kill
    if stmt.kind == StmtKind.LOOP:
        if isinstance(node, ast.While):
            gen |= _names(node.test)
        else:
            gen |= _names(node.iter)
            if isinstance(node.target, ast.Name):
                kill.add(node.target.id)
        return gen, kill
    if isinstance(node, ast.Assign):
        gen |= _names(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                kill.add(target.id)
            else:
                # subscript/attribute target also *uses* the base object.
                gen |= _names(target)
        return gen, kill
    if isinstance(node, ast.AugAssign):
        gen |= _names(node.value)
        gen |= _names(node.target)
        return gen, kill
    gen |= _names(node)
    return gen, kill


def _names(node: ast.AST) -> Set[str]:
    """The names ``node`` loads, by one explicit stack walk."""
    names: Set[str] = set()
    stack = [node]
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load):
                names.add(child.id)
        else:
            stack.extend(ast.iter_child_nodes(child))
    return names
