"""Live Attribute Analysis (LAA) -- section 3.1, equations (1)-(4).

Facts are ``(frame-var, column)`` pairs; ``(d, "*")`` means "all columns
of d".  The backward transfer per statement implements the paper's rules:

1. whole-frame use makes all columns live: ``Gen ∋ (d, *)``;
2. (re)definition of a frame kills all its columns;
3. a frame *derived* from another transfers its own liveness to the
   source (filters, sorts, head, dropna, projections, ...);
4. aggregates kill everything except group keys and aggregated columns;
5. the head/info/describe heuristic: informative calls generate nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.scirpy.cfg import CFG
from repro.analysis.scirpy.ir import IRStmt, StmtKind
from repro.analysis.dataflow.framework import DataflowResult, solve_backward
from repro.analysis.dataflow.frames import (
    INFORMATIVE,
    Kind,
    WILDCARD,
    _const_str,
    _const_str_list,
    _frame_base_name,
    _groupby_chain,
    expression_uses,
)

Fact = FrozenSet[Tuple[str, str]]

#: frame methods whose result shares the source's columns (rule 3).
_DERIVING = frozenset({
    "dropna", "fillna", "sort_values", "sort_index", "drop_duplicates",
    "head", "tail", "sample", "copy", "round", "astype", "abs", "reset_index",
})


def live_attributes(
    cfg: CFG,
    kinds: Dict[str, Kind],
    pandas_alias: Optional[str],
) -> DataflowResult:
    """Solve LAA; result facts are (var, column) pairs per statement."""

    def transfer(stmt: IRStmt, out: Fact) -> Fact:
        gen, kill = _gen_kill(stmt, out, kinds, pandas_alias)
        survived = {fact for fact in out if fact not in kill}
        return frozenset(gen | survived)

    return solve_backward(cfg, transfer)


def _gen_kill(stmt: IRStmt, out: Fact, kinds, pandas_alias):
    node = stmt.node
    gen: Set[Tuple[str, str]] = set()
    kill: Set[Tuple[str, str]] = set()
    if node is None or stmt.kind == StmtKind.EXIT:
        return gen, kill

    if stmt.kind in (StmtKind.BRANCH,):
        gen |= expression_uses(node.test, kinds, pandas_alias)
        return gen, kill
    if stmt.kind == StmtKind.LOOP:
        if isinstance(node, ast.While):
            gen |= expression_uses(node.test, kinds, pandas_alias)
        else:
            gen |= expression_uses(node.iter, kinds, pandas_alias)
        return gen, kill

    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return _assign_transfer(target.id, node.value, out, kinds, pandas_alias)
        if isinstance(target, ast.Subscript):
            # d["c"] = e : kills exactly that column (equation (2) for a
            # single-attribute assignment).
            frame = _frame_base_name(target.value, kinds)
            column = _const_str(target.slice)
            gen |= expression_uses(node.value, kinds, pandas_alias)
            if frame is not None and column is not None:
                kill.add((frame, column))
            return gen, kill
        if isinstance(target, ast.Attribute):
            frame = _frame_base_name(target.value, kinds)
            gen |= expression_uses(node.value, kinds, pandas_alias)
            if frame is not None:
                kill.add((frame, target.attr))
            return gen, kill

    if isinstance(node, ast.AugAssign):
        gen |= expression_uses(node.value, kinds, pandas_alias)
        return gen, kill

    if isinstance(node, ast.Expr):
        gen |= _stmt_expr_uses(node.value, kinds, pandas_alias)
        return gen, kill

    # Imports, pass, function defs, anything else: conservative walk.
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and kinds.get(child.id) == Kind.FRAME:
            gen.add((child.id, WILDCARD))
    return gen, kill


def _assign_transfer(target: str, value: ast.AST, out: Fact, kinds, pandas_alias):
    """x = <expr>: kill all of x (equation (2)); gen per the derivation
    rules."""
    kill = {(var, col) for (var, col) in out if var == target}
    gen: Set[Tuple[str, str]] = set()
    x_live_cols = {col for (var, col) in out if var == target}

    # x = d  (alias): liveness of x transfers verbatim (rule 3).
    frame = _frame_base_name(value, kinds)
    if frame is not None:
        gen |= {(frame, col) for col in x_live_cols}
        return gen, kill

    # x = d[...] projections and filters.
    if isinstance(value, ast.Subscript):
        base = _frame_base_name(value.value, kinds)
        if base is not None:
            column = _const_str(value.slice)
            if column is not None:
                gen.add((base, column))
                return gen, kill
            columns = _const_str_list(value.slice)
            if columns is not None:
                gen |= {(base, c) for c in columns}
                return gen, kill
            # boolean-mask filter: x's live columns come from d, plus the
            # mask's own column uses.
            gen |= {(base, col) for col in x_live_cols}
            gen |= expression_uses(value.slice, kinds, pandas_alias)
            return gen, kill

    # x = d.c (single column via attribute).
    if isinstance(value, ast.Attribute):
        base = _frame_base_name(value.value, kinds)
        if base is not None:
            gen.add((base, value.attr))
            return gen, kill

    if isinstance(value, ast.Call):
        handled = _assign_call_transfer(
            value, x_live_cols, gen, kinds, pandas_alias
        )
        if handled:
            return gen, kill

    gen |= expression_uses(value, kinds, pandas_alias)
    return gen, kill


def _assign_call_transfer(call: ast.Call, x_live_cols, gen, kinds, pandas_alias) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        if isinstance(func, ast.Name) and func.id in ("len", "print"):
            for arg in call.args:
                gen |= expression_uses(arg, kinds, pandas_alias)
            return True
        return False

    # pd.read_csv / pd.DataFrame: sources generate nothing.
    if (
        isinstance(func.value, ast.Name)
        and pandas_alias is not None
        and func.value.id == pandas_alias
    ):
        if func.attr in ("read_csv", "read_parquet", "DataFrame"):
            return True
        if func.attr in ("merge", "concat", "to_datetime"):
            for arg in call.args:
                gen |= expression_uses(arg, kinds, pandas_alias)
            return True
        return False

    # x = d.groupby(...)... (aggregation kills all but keys/agg columns --
    # rule 4 -- which falls out of generating only those columns on d).
    chain = _groupby_chain(call, kinds)
    if chain is not None:
        frame, columns = chain
        gen |= {(frame, c) for c in columns}
        return True

    base = _frame_base_name(func.value, kinds)
    if base is None:
        # Chained/derived expression (e.g. df[mask].groupby(...)): fall
        # back to generic use extraction.
        return False

    if func.attr in INFORMATIVE:
        return True
    if func.attr in _DERIVING:
        gen |= {(base, col) for col in x_live_cols}
        for kw in call.keywords:
            if kw.arg in ("by", "subset"):
                columns = _const_str_list(kw.value)
                if columns:
                    gen |= {(base, c) for c in columns}
        for arg in call.args:
            if func.attr in ("sort_values", "drop_duplicates"):
                columns = _const_str_list(arg)
                if columns:
                    gen |= {(base, c) for c in columns}
        return True
    if func.attr == "drop":
        dropped = set()
        for kw in call.keywords:
            if kw.arg == "columns":
                columns = _const_str_list(kw.value)
                if columns:
                    dropped.update(columns)
        gen |= {(base, col) for col in x_live_cols if col not in dropped}
        return True
    if func.attr == "rename":
        mapping = {}
        for kw in call.keywords:
            if kw.arg == "columns" and isinstance(kw.value, ast.Dict):
                for k, v in zip(kw.value.keys, kw.value.values):
                    ks, vs = _const_str(k), _const_str(v)
                    if ks is not None and vs is not None:
                        mapping[vs] = ks  # new -> old
        if mapping or x_live_cols:
            gen |= {
                (base, mapping.get(col, col)) for col in x_live_cols
            }
        return True
    if func.attr == "merge":
        gen.add((base, WILDCARD))
        for arg in call.args:
            gen |= expression_uses(arg, kinds, pandas_alias)
        return True

    # Unknown frame method.
    gen.add((base, WILDCARD))
    return True


def _stmt_expr_uses(expr: ast.AST, kinds, pandas_alias) -> Set[Tuple[str, str]]:
    """Uses of an expression statement (prints, external calls, ...)."""
    if isinstance(expr, ast.Call):
        func = expr.func
        # print(df) makes everything live; print(df.head()) does not.
        if isinstance(func, ast.Name) and func.id == "print":
            gen: Set[Tuple[str, str]] = set()
            for arg in expr.args:
                gen |= expression_uses(arg, kinds, pandas_alias)
            return gen
        # Method calls like df.info() / df.to_csv(...).
        if isinstance(func, ast.Attribute):
            base = _frame_base_name(func.value, kinds)
            if base is not None:
                if func.attr in INFORMATIVE:
                    return set()
                return {(base, WILDCARD)}
    return expression_uses(expr, kinds, pandas_alias)
