"""Metadata-driven read optimization (section 3.6).

For each ``scan`` node over a CSV source (the file-backed format whose
untyped text the hints exist for), consult the metastore entry its
session source decoded (:mod:`repro.io.source_table`) and:

- pass ``dtype`` hints for numeric columns (avoids inference work and
  object fallbacks),
- declare low-cardinality *read-only* string columns as ``category``.

Read-only status comes from two places, intersected with the metastore's
cardinality candidates:

- the static rewriter passes ``read_only_cols`` (kill-set analysis,
  section 3.1) into the read call;
- at runtime, any column that appears in a downstream ``setitem`` /
  modifying op is excluded -- the dynamic mirror of the same check, so a
  later assignment can never hit a closed category domain.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.graph.node import ALL_COLUMNS, Node
from repro.graph.taskgraph import ConsumerIndex, collect_subgraph


def apply_metadata_hints(roots: List[Node], metastore,
                         index: Optional[ConsumerIndex] = None) -> int:
    """Put dtype hints on sources (each a fresh scan in the old one's
    place); returns sources updated."""
    from repro.io.source_table import session_source

    if metastore is None:
        return 0
    index = index or ConsumerIndex(roots)
    nodes = collect_subgraph(roots)
    modified_columns = _modified_columns(nodes)
    updated = 0
    for node in nodes:
        if node.op != "scan" or node.args.get("format") != "csv":
            continue
        if node.args.get("path") is None:
            continue
        meta = session_source(node.args, metastore).file_meta()
        if meta is None:
            continue
        static_read_only = node.args.get("read_only_cols")
        if static_read_only is None and "mutated_cols" in node.args:
            static_read_only = [
                c
                for c in meta.columns
                if c not in set(node.args["mutated_cols"])
            ]
        read_only = _effective_read_only(
            meta.columns.keys(), static_read_only, modified_columns
        )
        hints = meta.dtype_hints(read_only_columns=sorted(read_only))
        parse_dates = set(node.args.get("parse_dates") or [])
        existing = dict(node.args.get("dtype") or {})
        for column, dtype in hints.items():
            if column in parse_dates or column in existing:
                continue
            existing[column] = dtype
        if existing:
            if existing != node.args.get("dtype"):
                # the read's dtypes change, and so its value
                index.substitute(node, node.rebuilt(dtype=existing),
                                 exact=False)
            updated += 1
    return updated


def _modified_columns(nodes) -> Set[str]:
    """Columns any node in the graph modifies (runtime kill set)."""
    modified: Set[str] = set()
    for node in nodes:
        mods = node.mod_attrs()
        if ALL_COLUMNS in mods:
            # A whole-frame modification (astype/fillna/...) taints
            # nothing by name; those ops rewrite values, not domains, and
            # category columns survive them via decode paths.
            mods = mods - {ALL_COLUMNS}
        modified |= mods
    return modified


def _effective_read_only(
    all_columns,
    static_read_only: Optional[Sequence[str]],
    modified: Set[str],
) -> Set[str]:
    if static_read_only is not None:
        base = set(static_read_only)
    else:
        base = set(all_columns)
    return {c for c in base if c not in modified}
