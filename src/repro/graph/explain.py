"""Plain-text task-graph rendering (``LazyFrame.explain()``).

Unlike :func:`repro.graph.taskgraph.to_dot`, this renderer is meant for
terminals and golden tests: nodes are renumbered ``N1..Nk`` in
topological order (global node ids vary run to run), file paths collapse
to their basename, and noisy args (print segments, inline data, UDFs)
are elided -- the same pipeline always renders the same text.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.graph.node import Node
from repro.graph.taskgraph import topological_order

#: label prefix of a node an optimizer rewrite built or rewrote: the
#: rendering shows what follows it, so the plan says what was done (the
#: facade's labels are names only, and are not shown).
REWRITE_NOTE = "rewrite: "

#: args whose values are payloads, not plan structure.
_ELIDED_ARGS = frozenset({"segments", "marker_map", "data", "frame", "blob", "node"})

_MAX_VALUE_CHARS = 48


def _format_value(key: str, value) -> str:
    if key == "path":
        return os.path.basename(str(value))
    if callable(value):
        return "<fn>"
    text = repr(value)
    if len(text) > _MAX_VALUE_CHARS:
        text = text[: _MAX_VALUE_CHARS - 3] + "..."
    return text

def _format_args(node: Node) -> str:
    if node.op == "scan":
        return _format_scan_args(node)
    parts = []
    for key, value in node.args.items():
        if key in _ELIDED_ARGS or value is None:
            continue
        parts.append(f"{key}={_format_value(key, value)}")
    return ", ".join(parts)


#: scan args with dedicated renderings below (est_bytes is elided: a
#: scheduling hint, not plan structure).
_SCAN_SPECIAL = frozenset({"format", "path", "predicate", "partitions",
                           "partitions_total", "columns", "est_bytes"})


def _format_scan_args(node: Node) -> str:
    """Scan nodes render their negotiated contract explicitly: the
    folded-in projection columns, the pushed predicate in compact infix
    form, and ``partitions=kept/total`` once the pruning pass counted
    them."""
    args = node.args
    parts = [f"format={args.get('format')!r}",
             f"path={os.path.basename(str(args.get('path')))}"]
    for key in sorted(args):
        if key in _SCAN_SPECIAL or args[key] is None:
            continue
        parts.append(f"{key}={_format_value(key, args[key])}")
    if args.get("columns") is not None:
        parts.append(f"columns={list(args['columns'])!r}")
    if args.get("predicate"):
        from repro.io.predicate import Predicate

        parts.append(
            f"predicate={Predicate.from_arg(args['predicate']).render()}"
        )
    total = args.get("partitions_total")
    if total is not None:
        kept = args.get("partitions")
        read = len(kept) if kept is not None else total
        parts.append(f"partitions={read}/{total}")
    return ", ".join(parts)


def render_node_line(node: Node, numbers: Dict[int, int]) -> str:
    """One node's plan line under a ``node id -> N number`` mapping.

    Shared by :func:`render_plan` and the analyzer's diagnostics, so a
    diagnostic's plan-path context is byte-identical to the rendered
    plan line it points at."""
    line = f"N{numbers.get(node.id, 0)} {node.op}"
    args = _format_args(node)
    if args:
        line += f"({args})"
    deps = ",".join(
        f"N{numbers[dep.id]}" for dep in node.all_deps()
        if dep.id in numbers
    )
    if deps:
        line += f" <- [{deps}]"
    if node.persist:
        line += "  [persist]"
    if node.label and node.label.startswith(REWRITE_NOTE):
        line += f"  [{node.label[len(REWRITE_NOTE):]}]"
    return line


def render_plan(roots: Sequence[Node]) -> str:
    """One line per node, dependencies first, deterministically numbered."""
    order = topological_order(list(roots))
    numbers = {node.id: index + 1 for index, node in enumerate(order)}
    lines: List[str] = [render_node_line(node, numbers) for node in order]
    return "\n".join(lines)
