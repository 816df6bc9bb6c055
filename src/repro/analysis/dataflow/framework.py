"""Generic iterative dataflow solver over SCIRPy CFGs.

Works at statement granularity: block-level In/Out sets are computed by
the usual worklist iteration, then statement-level facts come from
composing the per-statement transfer inside each block.  Facts are
(frozen) sets; merge is union (may analyses: liveness and friends).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, FrozenSet

from repro.analysis.scirpy.cfg import CFG

Fact = FrozenSet
Transfer = Callable[[object, Fact], Fact]  # (stmt, out/in) -> in/out


@dataclasses.dataclass
class DataflowResult:
    """Per-statement and per-block facts."""

    stmt_in: Dict[int, Fact]
    stmt_out: Dict[int, Fact]
    block_in: Dict[int, Fact]
    block_out: Dict[int, Fact]


def solve_backward(cfg: CFG, transfer: Transfer, boundary: Fact = frozenset()) -> DataflowResult:
    """Backward may-analysis: Out(n) = U In(succ); In = transfer(stmt, Out)."""
    blocks = cfg.blocks()
    block_in: Dict[int, Fact] = {b.id: frozenset() for b in blocks}
    block_out: Dict[int, Fact] = {b.id: frozenset() for b in blocks}
    block_in[cfg.exit.id] = boundary

    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out: Fact = frozenset()
            for succ, _ in block.succs:
                out = out | block_in.get(succ.id, frozenset())
            if block is cfg.exit:
                out = out | boundary
            new_in = out
            for stmt in reversed(block.live_stmts()):
                new_in = transfer(stmt, new_in)
            if out != block_out[block.id] or new_in != block_in[block.id]:
                block_out[block.id] = out
                block_in[block.id] = new_in
                changed = True

    stmt_in: Dict[int, Fact] = {}
    stmt_out: Dict[int, Fact] = {}
    for block in blocks:
        fact = block_out[block.id]
        for stmt in reversed(block.live_stmts()):
            stmt_out[stmt.id] = fact
            fact = transfer(stmt, fact)
            stmt_in[stmt.id] = fact
    return DataflowResult(stmt_in, stmt_out, block_in, block_out)
