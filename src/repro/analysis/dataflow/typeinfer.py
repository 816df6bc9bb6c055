"""Forward kind inference: which variables hold frames/series/scalars.

The paper infers dataframe-ness "from the types of the Pandas API calls"
(section 3.4): ``read_csv`` returns a frame, frame methods return frames
or series, aggregations return scalars.  A fixpoint over the statement
list handles loops and re-assignments; conflicting kinds degrade to the
stronger (FRAME > SERIES > SCALAR > OTHER) so downstream analyses stay
conservative about forcing computation.
"""

from __future__ import annotations

import ast
from types import MappingProxyType
from typing import Dict, Optional

from repro.analysis.scirpy.cfg import CFG
from repro.analysis.dataflow.frames import Kind, expr_kind

_PRIORITY = MappingProxyType({
    Kind.FRAME: 4,
    Kind.GROUPBY: 3,
    Kind.SERIES: 2,
    Kind.SCALAR: 1,
    Kind.OTHER: 0,
})


def infer_kinds(cfg: CFG, pandas_alias: Optional[str]) -> Dict[str, Kind]:
    """Variable name -> inferred kind over the whole program."""
    kinds: Dict[str, Kind] = {}
    for _ in range(4):  # enough for chains through loops
        changed = False
        for stmt in cfg.statements():
            node = stmt.node
            if node is None:
                continue
            targets = []
            value = None
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                targets = [node.target]
                value = node.value
            elif isinstance(node, (ast.For,)) and isinstance(node.target, ast.Name):
                targets = [node.target]
                value = None
            if value is None or not targets:
                continue
            kind = expr_kind(value, kinds, pandas_alias)
            for target in targets:
                current = kinds.get(target.id, Kind.OTHER)
                if _PRIORITY[kind] > _PRIORITY[current]:
                    kinds[target.id] = kind
                    changed = True
                elif target.id not in kinds:
                    kinds[target.id] = kind
                    changed = True
        if not changed:
            break
    return kinds
