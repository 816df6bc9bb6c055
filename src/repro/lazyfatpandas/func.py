"""``lazyfatpandas.func``: lazy replacements for builtins (section 3.3).

``from repro.lazyfatpandas.func import print`` overrides the builtin with
LaFP's lazy print: instead of forcing computation, a print *node* joins
the task graph, chained to the previous print so output order is
preserved.  Execution happens at the next forced computation or at
``pd.flush()``.

f-strings evaluate before ``print`` is called, so lazy values embedded in
them format themselves as escape markers carrying their node id
(``LazyObject.__format__``), and the session keeps each node it minted
a marker for; the print resolves the markers through the cross-session
map of marked nodes -- the paper's unique-ID escape-sequence mechanism.

``len`` is the lazy length: applied to a lazy frame/series it returns a
:class:`~repro.core.LazyScalar`; on anything else it is the builtin.
"""

from __future__ import annotations

import builtins
from typing import List

from repro.backends.base import MARKER_PATTERN
from repro.core.lazyframe import LazyFrame, LazyObject, LazyScalar, LazySeries
from repro.core.session import current_session, node_for_id
from repro.graph.node import Node

_builtin_print = builtins.print
_builtin_len = builtins.len


def print(*args, sep: str = " ", end: str = "\n", file=None, flush: bool = False):
    """Lazy print: adds a node to the task graph (Figure 9).

    Falls through to the builtin when neither a lazy value nor a lazy
    marker is involved (and a custom ``file`` always bypasses laziness).
    """
    # Queue on the session current at call time -- that is the session
    # whose flush (explicit pd.flush(), forced compute, or `with
    # Session(...)` exit) the caller can reach, so output is never
    # stranded on an exited session.  Lazy values and markers from
    # *other* sessions still resolve: inputs reference their nodes
    # directly, and markers resolve through the cross-session node map.
    session = current_session()
    involves_lazy = any(isinstance(a, LazyObject) for a in args) or any(
        isinstance(a, str) and MARKER_PATTERN.search(a) for a in args
    )
    if file is not None or not involves_lazy:
        # Even plain prints must respect ordering against pending lazy
        # prints; chain them as zero-input lazy nodes.
        if file is not None:
            return _builtin_print(*args, sep=sep, end=end, file=file, flush=flush)
    inputs: List[Node] = []
    seen: dict = {}

    def _input_index(node: Node) -> int:
        if node.id not in seen:
            seen[node.id] = _builtin_len(inputs)
            inputs.append(node)
        return seen[node.id]

    segments = []
    marker_map = {}
    for arg in args:
        if isinstance(arg, LazyObject):
            segments.append({"kind": "node", "index": _input_index(arg.node)})
        elif isinstance(arg, str) and MARKER_PATTERN.search(arg):
            for match in MARKER_PATTERN.finditer(arg):
                node_id = int(match.group(1))
                # The map spans sessions, so a marker string can mix
                # with lazy values from another session.
                node = node_for_id(node_id)
                if node is None:
                    raise KeyError(
                        f"lazy print marker references unknown node {node_id}"
                    )
                marker_map[match.group(1)] = _input_index(node)
            segments.append({"kind": "fstring", "value": arg})
        else:
            segments.append({"kind": "literal", "value": arg})

    node = Node(
        "print",
        inputs=inputs,
        args={
            "segments": segments,
            "marker_map": marker_map,
            "sep": sep,
            "end": end,
        },
        label="print",
    )
    session.register(node)
    session.add_print(node)
    return None


def len(obj):  # noqa: A001 - deliberate builtin shadow (paper's lazy len)
    """Lazy ``len``: a LazyScalar for lazy collections, builtin otherwise."""
    if isinstance(obj, LazyFrame):
        session = obj.session
        node = Node("frame_len", inputs=[obj.node], label="len")
        return LazyScalar(session.register(node), session)
    if isinstance(obj, LazySeries):
        session = obj.session
        node = Node("series_len", inputs=[obj.node], label="len")
        return LazyScalar(session.register(node), session)
    return _builtin_len(obj)
