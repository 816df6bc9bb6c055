"""Execution-free linting: run a program, analyze every plan it builds.

A :class:`LintSession` is a drop-in :class:`~repro.core.session.Session`
whose computations never execute: every ``collect()`` / lazy-print
flush / ``len()`` the program forces records the plan's roots and hands
back an inert :class:`_LintValue` stub instead of touching a single
partition.  After the program body ran, :meth:`LintSession.finish`
analyzes the *whole* session graph once -- plan rules plus the
session-scoped ones (dead subgraphs need to see everything the program
built and what it actually consumed).

The workloads CLI's ``lint`` command drives this via
:meth:`repro.workloads.runner.Runner.lint`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.plan.diagnostics import Diagnostic
from repro.analysis.plan.rules import analyze_plan
from repro.core.session import Session
from repro.graph.node import Node


class _LintValue:
    """Inert stand-in for a computed result.

    Permissive enough that post-``collect()`` program code (arithmetic
    on totals, ``len`` checks, attribute chains, result writing) runs
    through without executing anything real.
    """

    def __getattr__(self, name: str) -> "_LintValue":
        return self

    def __call__(self, *args, **kwargs) -> "_LintValue":
        return self

    def __getitem__(self, key) -> "_LintValue":
        return self

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False

    def __int__(self) -> int:
        return 0

    def __float__(self) -> float:
        return 0.0

    def __index__(self) -> int:
        return 0

    def __str__(self) -> str:
        return "<lint>"

    def __repr__(self) -> str:
        return "<lint>"

    def __format__(self, spec: str) -> str:
        return "<lint>"

    def _binop(self, *_args) -> "_LintValue":
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = _binop
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _binop
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _binop
    __and__ = __or__ = __xor__ = __neg__ = __abs__ = _binop

    def _compare(self, _other) -> bool:
        return False

    __lt__ = __le__ = __gt__ = __ge__ = _compare


class LintSession(Session):
    """A session whose computations analyze instead of execute."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: roots the program forced (collect / flush / len / save).
        self.computed_ids: Set[int] = set()
        #: every node the program built, for :meth:`finish`.
        self.built: Dict[int, Node] = {}

    def register(self, node: Node) -> Node:
        self.built[node.id] = node
        return super().register(node)

    def _run(self, roots: List[Node], live_nodes: List[Node]):
        # Record what the program would have executed; nothing runs, no
        # partition is read, every "result" is an inert stub.
        for root in roots:
            self.computed_ids.add(root.id)
        self.stats["computes"] += 1
        return [_LintValue() for _ in roots]

    def finish(self) -> List[Diagnostic]:
        """Analyze everything this session's program built.

        Roots are the graph's leaves (nodes nothing consumes), so one
        pass covers every subgraph -- including ones the program never
        forced, which is exactly what the dead-subgraph rule looks for.
        """
        nodes = list(self.built.values())
        consumed: Set[int] = set()
        for node in nodes:
            for dep in node.all_deps():
                consumed.add(dep.id)
        leaves = [n for n in nodes if n.id not in consumed]
        if not leaves:
            return []
        return analyze_plan(
            leaves,
            session=self,
            scope="session",
            computed_ids=self.computed_ids,
        )
