"""The dataframe model: how the analyses understand pandas expressions.

Centralizes the knowledge of which expressions produce frames, series,
group-bys or scalars; which frame methods preserve columns; and how to
extract *column uses* from expressions -- the building blocks of the
paper's live attribute analysis (section 3.1).

Everything here is deliberately conservative: an unrecognized use of a
frame variable counts as using *all* of its columns (the wildcard
``"*"``), matching the paper's "our analysis is conservative".
"""

from __future__ import annotations

import ast
import enum
from typing import Dict, List, Optional, Set, Tuple

WILDCARD = "*"

#: module paths whose import makes an alias "the pandas module".
PANDAS_MODULES = frozenset({
    "pandas",
    "lazyfatpandas.pandas",
    "repro.lazyfatpandas.pandas",
})

#: dotted-path prefixes that provide lazy-capable functions (not
#: "external"); anything else imported is an external module whose calls
#: need forced computation (section 3.4).  Note ``repro.workloads.plotlib``
#: is deliberately NOT here -- it is the matplotlib stand-in.
LAZY_SAFE_PREFIXES = (
    "lazyfatpandas",
    "repro.lazyfatpandas",
    "builtins",
)


def _is_lazy_safe(module: str) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in LAZY_SAFE_PREFIXES
    )


class Kind(enum.Enum):
    FRAME = "frame"
    SERIES = "series"
    GROUPBY = "groupby"
    SCALAR = "scalar"
    OTHER = "other"


#: frame methods returning a frame with the *same columns* (derivation
#: transfers liveness, rule (3) of section 3.1).
FRAME_PRESERVING = frozenset({
    "dropna", "fillna", "sort_values", "sort_index", "drop_duplicates",
    "head", "tail", "sample", "copy", "round", "astype", "abs",
})
#: frame methods returning frames with different/unknown columns.
FRAME_TRANSFORMING = frozenset({
    "merge", "rename", "assign", "nlargest", "nsmallest", "describe",
    "select_dtypes", "reset_index", "set_index", "drop",
})
#: frame methods returning a series.
FRAME_TO_SERIES = frozenset({"apply", "count", "sum", "mean", "memory_usage"})
#: series methods returning a series.
SERIES_METHODS = frozenset({
    "fillna", "astype", "map", "apply", "abs", "round", "isin", "between",
    "isna", "notna", "isnull", "notnull", "dropna", "head", "sort_values",
    "value_counts", "rename", "nlargest", "nsmallest",
})
#: series methods returning a scalar.
SERIES_AGGS = frozenset({
    "sum", "mean", "min", "max", "count", "std", "var", "median",
    "nunique", "quantile", "idxmax", "idxmin",
})
#: group-by aggregation methods.
GROUPBY_AGGS = frozenset({
    "sum", "mean", "min", "max", "count", "std", "size", "agg", "first",
    "nunique",
})
#: informative calls whose column usage the paper's heuristic ignores.
INFORMATIVE = frozenset({"head", "info", "describe", "tail"})


def module_aliases(tree: ast.Module) -> Tuple[Optional[str], Dict[str, str]]:
    """(pandas alias, {alias: module} for external modules)."""
    pandas_alias = None
    external: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                alias = item.asname or item.name.split(".")[0]
                if item.name in PANDAS_MODULES:
                    pandas_alias = alias
                elif not _is_lazy_safe(item.name):
                    external[alias] = item.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if _is_lazy_safe(module):
                continue
            for item in node.names:
                alias = item.asname or item.name
                external[alias] = f"{module}.{item.name}"
    return pandas_alias, external


# ---------------------------------------------------------------------------
# Expression kinds.
# ---------------------------------------------------------------------------


def expr_kind(expr: ast.AST, kinds: Dict[str, Kind], pandas_alias: Optional[str]) -> Kind:
    """Best-effort kind of an expression under the variable environment."""
    if isinstance(expr, ast.Name):
        return kinds.get(expr.id, Kind.OTHER)
    if isinstance(expr, ast.Call):
        return _call_kind(expr, kinds, pandas_alias)
    if isinstance(expr, ast.Attribute):
        base = expr_kind(expr.value, kinds, pandas_alias)
        if base == Kind.FRAME:
            return Kind.SERIES  # column access df.col
        if base == Kind.SERIES:
            return Kind.SERIES  # .str / .dt accessors and chains
        return Kind.OTHER
    if isinstance(expr, ast.Subscript):
        base = expr_kind(expr.value, kinds, pandas_alias)
        if base == Kind.FRAME:
            if isinstance(expr.slice, ast.Constant) and isinstance(expr.slice.value, str):
                return Kind.SERIES
            return Kind.FRAME
        if base == Kind.SERIES:
            return Kind.SERIES
        if base == Kind.GROUPBY:
            return Kind.GROUPBY
        return Kind.OTHER
    if isinstance(expr, (ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.Compare)):
        for child in ast.iter_child_nodes(expr):
            kind = expr_kind(child, kinds, pandas_alias)
            if kind == Kind.SERIES:
                return Kind.SERIES
        return Kind.OTHER
    return Kind.OTHER


def _call_kind(call: ast.Call, kinds, pandas_alias) -> Kind:
    func = call.func
    if isinstance(func, ast.Attribute):
        # pd.<fn>(...)
        if (
            isinstance(func.value, ast.Name)
            and pandas_alias is not None
            and func.value.id == pandas_alias
        ):
            if func.attr in ("read_csv", "read_parquet", "DataFrame", "merge", "concat"):
                return Kind.FRAME
            if func.attr == "to_datetime":
                return Kind.SERIES
            return Kind.OTHER
        base = expr_kind(func.value, kinds, pandas_alias)
        if base == Kind.FRAME:
            if func.attr == "groupby":
                return Kind.GROUPBY
            if func.attr in FRAME_PRESERVING or func.attr in FRAME_TRANSFORMING:
                return Kind.FRAME
            if func.attr in FRAME_TO_SERIES:
                return Kind.SERIES
            return Kind.OTHER
        if base == Kind.SERIES:
            if func.attr in SERIES_AGGS:
                return Kind.SCALAR
            if func.attr in SERIES_METHODS:
                return Kind.SERIES
            if func.attr == "to_frame":
                return Kind.FRAME
            return Kind.SERIES  # .str.lower() etc. chain
        if base == Kind.GROUPBY:
            if func.attr == "agg":
                return Kind.FRAME
            if func.attr in GROUPBY_AGGS:
                return Kind.SERIES
            return Kind.OTHER
    return Kind.OTHER


# ---------------------------------------------------------------------------
# Column-use extraction (the Gen sets of LAA).
# ---------------------------------------------------------------------------


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_str_list(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for element in node.elts:
            value = _const_str(element)
            if value is None:
                return None
            out.append(value)
        return out
    single = _const_str(node)
    if single is not None:
        return [single]
    return None


def _frame_base_name(expr: ast.AST, kinds) -> Optional[str]:
    if isinstance(expr, ast.Name) and kinds.get(expr.id) == Kind.FRAME:
        return expr.id
    return None


def expression_uses(
    expr: ast.AST,
    kinds: Dict[str, Kind],
    pandas_alias: Optional[str],
) -> Set[Tuple[str, str]]:
    """All (frame-var, column) pairs an expression reads.

    Recognized access patterns contribute precise columns; a frame
    variable escaping through anything unrecognized contributes the
    wildcard.
    """
    uses: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST) -> None:
        # df["c"] / df.c
        frame = None
        if isinstance(node, ast.Subscript):
            frame = _frame_base_name(node.value, kinds)
            if frame is not None:
                column = _const_str(node.slice)
                if column is not None:
                    uses.add((frame, column))
                    return
                columns = _const_str_list(node.slice)
                if columns is not None:
                    uses.update((frame, c) for c in columns)
                    return
                # df[<mask expr>]: frame passes through, mask is analyzed.
                visit(node.slice)
                return
        if isinstance(node, ast.Attribute):
            frame = _frame_base_name(node.value, kinds)
            if frame is not None:
                uses.add((frame, node.attr))
                return
            visit(node.value)
            return
        if isinstance(node, ast.Call):
            handled = _call_uses(node, kinds, pandas_alias, uses, visit)
            if handled:
                return
        if isinstance(node, ast.Name):
            if kinds.get(node.id) == Kind.FRAME:
                uses.add((node.id, WILDCARD))
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(expr)
    return uses


def _call_uses(call: ast.Call, kinds, pandas_alias, uses, visit) -> bool:
    """Column uses of recognized method calls. Returns True if handled."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False

    # d.groupby(keys)[col].fn() / d.groupby(keys).agg({...})
    chain = _groupby_chain(call, kinds)
    if chain is not None:
        frame, columns = chain
        uses.update((frame, c) for c in columns)
        return True

    base_frame = _frame_base_name(func.value, kinds)
    if base_frame is not None:
        if func.attr in INFORMATIVE:
            return True  # heuristic: head()/info()/describe() use nothing
        if func.attr in FRAME_PRESERVING or func.attr in ("drop", "rename"):
            # Column args (by=/subset=) are uses; the frame itself passes
            # through -- the assignment transfer adds propagated columns.
            for kw in call.keywords:
                columns = _const_str_list(kw.value) if kw.arg in ("by", "subset") else None
                if columns:
                    uses.update((base_frame, c) for c in columns)
            for arg in call.args:
                columns = _const_str_list(arg)
                if columns and func.attr in ("sort_values", "drop_duplicates"):
                    uses.update((base_frame, c) for c in columns)
            return True
        # Unknown frame method: conservative.
        uses.add((base_frame, WILDCARD))
        for arg in call.args:
            visit(arg)
        return True

    # Builtin print(df.head()) etc. fall through to generic visiting.
    return False


def _groupby_chain(call: ast.Call, kinds) -> Optional[Tuple[str, Set[str]]]:
    """Parse ``d.groupby(keys)[col].fn(...)`` / ``d.groupby(keys).agg({...})``.

    Returns (frame name, used columns) when the pattern matches.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in GROUPBY_AGGS:
        return None

    target = func.value  # d.groupby(keys)[col]  or  d.groupby(keys)
    selected: Set[str] = set()
    if isinstance(target, ast.Subscript):
        columns = _const_str_list(target.slice)
        if columns is None:
            return None
        selected.update(columns)
        target = target.value
    if not (
        isinstance(target, ast.Call)
        and isinstance(target.func, ast.Attribute)
        and target.func.attr == "groupby"
    ):
        return None
    frame = _frame_base_name(target.func.value, kinds)
    if frame is None:
        return None
    keys: Set[str] = set()
    for arg in target.args:
        columns = _const_str_list(arg)
        if columns is None:
            return None
        keys.update(columns)
    if func.attr == "agg" and call.args:
        spec = call.args[0]
        if isinstance(spec, ast.Dict):
            for key in spec.keys:
                column = _const_str(key)
                if column is not None:
                    selected.add(column)
    return frame, keys | selected
