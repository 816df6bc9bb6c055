"""The serial strategy: the inline seam, one node per task.

The paper's single loop (section 2.6): tasks run on the calling thread
in the ready set's admission order -- dependencies first, the static
priority breaking every tie -- with refcount-based eager release.  Queue
wait is the time a ready node spent behind earlier-ordered ready nodes.
"""

from __future__ import annotations

from repro.graph.scheduler.base import ReadySet, Scheduler
from repro.graph.scheduler.stats import ExecutionStats


class SerialScheduler(Scheduler):
    """Dependencies-first, one task at a time (the paper's section 2.6)."""

    name = "serial"

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        while (admitted := self._admit(ready, 0, stats)) is not None:
            self._run_inline(ready, *admitted, stats)
