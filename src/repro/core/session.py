"""LaFP sessions: explicit, thread-safe execution state.

A :class:`Session` owns everything one logical program needs:

- its options (:class:`~repro.core.config.SessionOptions`, including the
  ``backend.engine`` choice -- default ``dask`` as in section 2.6),
- its engine choice, resolved through :data:`~repro.backends.ENGINES`
  (pandas / dask / modin), so two sessions can run different engines
  concurrently,
- its own :class:`~repro.memory.manager.MemoryManager`, whose budget is
  the ``memory.budget`` option, so concurrent sessions account and
  budget their allocations independently -- the root session included,
- a scheduler per ``collect()``, of the strategy the
  ``executor.strategy`` option picks from
  :data:`~repro.graph.scheduler.STRATEGIES` (serial / threaded /
  fused),
- the chain of pending lazy-print nodes (section 3.3),
- the set of persisted nodes from ``persist()`` / ``compute(live_df=...)``
  calls (section 3.5), released once no longer live,
- its source table (:mod:`repro.io.source_table`): one snapshot of each
  scanned file's header, partitions and metastore entry,
- the nodes it minted f-string escape markers for, so a marker resolves
  for as long as the session lives.

A session holds no other node: a plan lives exactly as long as the
program's frames reach it, so a dropped frame's value stops counting
against the budget.

Sessions are resolved through a *thread-local stack*::

    with Session(backend="pandas") as s:
        df = lfp.read_csv(path)       # binds to s
        df.collect()                  # runs on s's pandas engine

:func:`current_session` returns the innermost active session of the
calling thread, falling back to a shared process root session so
paper-verbatim scripts (no explicit session) keep working.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref
from typing import Dict, List, Optional, Sequence

from repro import choose
from repro.backends import ENGINES, Backend
from repro.backends.base import MARKER
from repro.core.config import SessionOptions
from repro.graph import Node, collect_subgraph, physical_plan, render_plan
from repro.graph.scheduler import STRATEGIES, ExecutionStats, Scheduler
from repro.memory.manager import MemoryManager


class Session:
    """Holds the lazily-built task graph's runtime state.

    Context manager: ``with Session(...)`` makes it the calling thread's
    current session; on exit the previous session is current again
    (nesting works like any stack).
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        options: Optional[dict] = None,
        metastore=None,
    ):
        self.options = SessionOptions(options)
        if backend is not None:
            self.options.set("backend.engine", backend)
        self._memory = MemoryManager()
        self.last_print: Optional[Node] = None
        self.pending_prints: List[Node] = []
        #: nodes an f-string escape marker was minted for (see
        #: :meth:`marker`), kept so the marker resolves.
        self._marked: Dict[int, Node] = {}
        self.persisted: List[Node] = []
        self.metastore = metastore  # set lazily; tests may inject one
        from repro.io.source_table import SourceTable

        self.sources = SourceTable()
        self.stats = {"computes": 0, "nodes_executed": 0}
        self.last_optimize_report: Optional[dict] = None
        self.last_execution_stats: Optional[ExecutionStats] = None
        #: the CacheRunState of the last ``optimize()`` (None with
        #: ``optimizer.reuse`` off): where the reuse pass leaves it for
        #: _run to hand to the scheduler.
        self._cache_run = None

    # -- options -----------------------------------------------------------

    def get_option(self, key: str):
        return self.options.get(key)

    def set_option(self, key: str, value) -> None:
        self.options.set(key, value)

    def option_context(self, *args):
        """Nestable temporary option overrides (see
        :meth:`SessionOptions.context`)."""
        return self.options.context(*args)

    # -- engine / backend --------------------------------------------------

    @property
    def backend_name(self) -> str:
        return str(self.options.get("backend.engine"))

    @property
    def backend(self) -> Backend:
        """The backend of the engine ``backend.engine`` names: the
        engine's one shared instance (a backend holds no state)."""
        return choose(ENGINES, self.backend_name.lower(), "backend")

    def set_backend(self, name: str) -> None:
        """Routes through the options so there is one source of truth."""
        self.options.set("backend.engine", name)

    # -- memory ------------------------------------------------------------

    @property
    def memory(self) -> MemoryManager:
        """This session's memory manager.

        Its budget is the ``memory.budget`` option, written through on
        every access, so ``option_context("memory.budget", ...)``
        budgets exactly its scope.
        """
        self._memory.budget = self.options.get("memory.budget")
        return self._memory

    # -- scheduling --------------------------------------------------------

    def scheduler(self) -> Scheduler:
        """Build the scheduler the ``executor.strategy`` option names,
        running nodes on this session's engine."""
        strategy = str(self.options.get("executor.strategy")).lower()
        return choose(STRATEGIES, strategy, "executor strategy")(
            session=self,
            max_workers=int(self.options.get("executor.max_workers")),
            static_order=bool(self.options.get("executor.static_order")),
        )

    # -- activation --------------------------------------------------------

    def activate(self) -> "Session":
        """Push onto the calling thread's session stack."""
        _stack().append(self)
        return self

    def deactivate(self) -> None:
        """Pop this session off the calling thread's stack.

        Sessions activated inside this one's scope and never
        deactivated (e.g. a script that called ``activate()`` bare) are
        popped along with it -- the stack must stay consistent, so
        ``current_session()`` never resolves to a dead scope.  Such
        out-of-order exits are reported as a ``RuntimeWarning``;
        deactivating a session that is not on the stack at all is an
        error.
        """
        stack = _stack()
        if self not in stack:
            raise RuntimeError("session is not active on this thread")
        if stack[-1] is not self:
            warnings.warn(
                "session deactivated out of order; sessions activated "
                "inside its scope were still active and were popped too",
                RuntimeWarning,
                stacklevel=2,
            )
        while stack:
            if stack.pop() is self:
                break

    def __enter__(self) -> "Session":
        return self.activate()

    def __exit__(self, exc_type, exc, tb) -> bool:
        # On a clean exit, drain pending lazy prints (the paper's rule:
        # deferred output must appear by end of program; without this, a
        # print queued inside the block would be lost once the outer
        # session becomes current).  SystemExit counts as a clean exit
        # -- a program calling sys.exit() still expects its deferred
        # output.  Real errors skip the drain so the flush cannot mask
        # them.
        try:
            if exc_type is None or issubclass(exc_type, SystemExit):
                self.flush()
        finally:
            self.deactivate()
        return False

    # -- node bookkeeping --------------------------------------------------

    def register(self, node: Node) -> Node:
        """Note that ``node`` was built in this session.  Nothing keeps
        it: the program's frames do (a
        :class:`~repro.analysis.plan.lint.LintSession` keeps what it
        built, for its report)."""
        return node

    def marker(self, node: Node) -> str:
        """The f-string escape marker of ``node`` (section 3.3).

        The session keeps ``node`` from here on, and
        :func:`node_for_id` resolves the marker from any session: the
        string may outlive the frame it was formatted from."""
        self._marked[node.id] = node
        _nodes_by_id[node.id] = node
        return MARKER.format(node.id)

    def add_print(self, node: Node) -> None:
        """Chain a lazy print for deterministic output order."""
        if self.last_print is not None:
            node.order_deps.append(self.last_print)
        self.last_print = node
        self.pending_prints.append(node)

    # -- computation -------------------------------------------------------

    def compute(self, node: Node, live_df: Optional[Sequence] = None):
        """Force ``node`` (and pending prints), with live_df persistence.

        Pending lazy prints execute first (ordering edges keep them in
        program order) -- this is the paper's rule that forced computation
        processes pending prints so external output does not interleave
        wrongly (section 3.4).
        """
        live_nodes = _live_nodes(live_df)
        roots = [p for p in self.pending_prints] + [node]
        results = self._run(roots, live_nodes)
        self.pending_prints.clear()
        return results[-1]

    def flush(self) -> None:
        """Execute all pending lazy prints (the ``pd.flush()`` of Fig. 8)."""
        if not self.pending_prints:
            return
        roots = list(self.pending_prints)
        self._run(roots, live_nodes=[])
        self.pending_prints.clear()

    def explain(self, node: Node, optimized: bool = True,
                stats: bool = False, diagnostics: bool = False) -> str:
        """Render ``node``'s task graph as text: the raw plan and (by
        default) the plan after this session's optimizer rules ran.

        With ``stats=True`` the session's most recent execution
        statistics (per-node wall time, queue wait, bytes registered and
        released, fusion and throttle counters) are appended -- run a
        ``collect()`` first to populate them.  With ``diagnostics=True``
        the static plan analyzer's findings on the *raw* plan are
        appended (deterministically ordered and numbered like the raw
        plan itself, so the section golden-tests the same way).

        Purely observational: the optimizer runs on a private copy of
        the plan, so ``explain()`` never changes what a later
        ``collect()`` computes -- and it shows what that ``collect()``
        would run: a frame that already holds its value is a ``held``
        leaf with nothing planned beneath it.
        """
        from repro.core.optimizer import optimize

        roots = [node]
        sections = ["== raw plan ==", render_plan(roots)]
        if diagnostics:
            from repro.analysis.plan import analyze_plan, render_diagnostics

            sections += [
                "", "== diagnostics ==",
                render_diagnostics(analyze_plan(roots, session=self)),
            ]
        if optimized:
            twins = [physical_plan(roots)[node.id]]
            optimize(twins, self, live_nodes=[])
            sections += ["", "== optimized plan ==", render_plan(twins)]
        if stats:
            sections += ["", "== last execution stats =="]
            if self.last_execution_stats is None:
                sections.append("(no execution recorded yet; collect() first)")
            else:
                sections.append(self.last_execution_stats.render())
        return "\n".join(sections)

    def validate(self, node: Node):
        """Run the static plan analyzer over ``node``'s graph.

        Returns the (possibly empty) diagnostic list when no finding has
        error severity; raises
        :class:`~repro.analysis.plan.PlanValidationError` -- carrying
        every diagnostic -- when one does.  Nothing is executed and no
        partition is read.
        """
        from repro.analysis.plan import PlanValidationError, analyze_plan

        diagnostics = analyze_plan([node], session=self)
        if any(d.is_error for d in diagnostics):
            raise PlanValidationError(diagnostics)
        return diagnostics

    def _analysis_gate(self, roots: List[Node]) -> None:
        """The ``analysis.level`` hook: every computation passes through
        here *before* the optimizer or scheduler touch the plan, so
        strict sessions reject provably broken plans without reading a
        single partition."""
        level = str(self.options.get("analysis.level"))
        if level == "off":
            return
        from repro.analysis.plan import PlanValidationError, analyze_plan
        from repro.analysis.plan.diagnostics import PlanDiagnosticsWarning

        diagnostics = analyze_plan(roots, session=self)
        errors = [d for d in diagnostics if d.is_error]
        if not errors:
            return
        if level == "strict":
            raise PlanValidationError(diagnostics)
        summary = "; ".join(f"{d.code} {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors) - 3} more)"
        warnings.warn(
            f"static plan analysis found {len(errors)} error(s): {summary}",
            PlanDiagnosticsWarning,
            stacklevel=4,
        )

    def _run(self, roots: List[Node], live_nodes: List[Node]):
        """Compute ``roots``: the one planning seam.

        A run optimizes and executes a private copy of the user's graph
        (like Dask optimizing a copy of its graph): twins with the raw
        ids but their own wiring and args, a ``held`` leaf wherever a
        node already holds its value.  The rules rewrite that copy for
        *this* execution only -- later computations may demand columns
        or rows it pruned away -- a root or pin perhaps as a fresh node
        in its slot, and the user's graph gets back from the slots just
        the values it is meant to keep: the roots' (every pending
        side-effect node is one) and the pins' for ``live_nodes``.  A
        pin is a root to the optimizer, so it holds what its raw node
        defines, but not to the scheduler, which computes it as its
        consumers' input (the Dask engine leaves a pin's plan uncut).
        """
        from repro.core.optimizer import optimize
        from repro.core.optimizer.common_subexpr import pin_frontier

        # A re-collect -- every root holds its result (so no print is
        # pending, and nothing under a held root is left to pin) -- has
        # no plan to gate, copy or optimize: the scheduler just hands
        # the values back.
        planned = not all(r.computed for r in roots)
        if planned:
            self._analysis_gate(roots)
        twins, pins, pinned = roots, [], []
        scheduler = self.scheduler()
        # the run's record exists before the plan does: what the reuse
        # pass serves and misses belongs to this run
        stats = scheduler.stats
        try:
            if planned:
                plan = physical_plan(roots)
                twins = [plan[root.id] for root in roots]
                pins = pin_frontier(plan, live_nodes)
                pinned = [twin for _, twin in pins]
                with stats.bound():
                    self.last_optimize_report = optimize(
                        twins, self, live_nodes=pinned)
                # the reuse pass left its run state here; the scheduler
                # offers executed results back through it.
                scheduler.cache_state = self._cache_run
            results = scheduler.execute(twins)
        finally:
            # also when the run failed: the scheduler's unwind dropped
            # every result but the side-effect nodes' (a print that
            # reached stdout must not repeat) and the persisted ones'
            for raw, twin in zip(roots, twins):
                if twin.computed and not raw.computed:
                    raw.set_result(twin.result)
            for (raw, _), twin in zip(pins, pinned):
                if twin.persist and twin.computed:
                    raw.set_result(twin.result)
                    raw.persist = True
                    self.persisted.append(raw)
            if scheduler.last_stats is stats:  # planning got as far as a run
                self.last_execution_stats = stats
                self.stats["nodes_executed"] += stats.nodes_executed
        self.stats["computes"] += 1
        self._release_dead_persists(live_nodes)
        return results

    def _release_dead_persists(self, live_nodes: List[Node]) -> None:
        """Drop persisted results that no live dataframe still references
        (section 3.5: persisted frames are discarded after their last use).
        """
        still_live = set()
        if live_nodes:
            for live in live_nodes:
                still_live.update(n.id for n in collect_subgraph([live]))
        survivors = []
        for node in self.persisted:
            if node.id in still_live:
                survivors.append(node)
            else:
                node.persist = False
                node.clear_result()
        self.persisted = survivors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Session backend={self.backend_name!r} "
            f"computes={self.stats['computes']}>"
        )


# ---------------------------------------------------------------------------
# Session resolution: per-thread stack over a shared root.
# ---------------------------------------------------------------------------

_tls = threading.local()
_root_lock = threading.RLock()
_root: Optional[Session] = None

#: node id -> node, for the nodes a marker was minted for (weak: an
#: entry lives as long as the minting session keeps its node).  Node
#: ids come from one process-wide counter, so ids are unambiguous
#: across sessions.
_nodes_by_id: "weakref.WeakValueDictionary[int, Node]" = (
    weakref.WeakValueDictionary()
)


def node_for_id(node_id: int) -> Optional[Node]:
    """Resolve a marked node by id, across all live sessions.

    Lets f-string escape markers (section 3.3) resolve even when the
    embedding string outlives the ``with Session(...)`` block it was
    built in."""
    return _nodes_by_id.get(node_id)


def _stack() -> List[Session]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _clear_stack_after_fork() -> None:
    # A forked child (say, a worker the program forks itself) inherits
    # the forking thread's active-session stack; those sessions -- and
    # their memory budgets -- belong to the parent, so the child starts
    # from the root session.
    _stack().clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_clear_stack_after_fork)


def current_session() -> Session:
    """The innermost active session of this thread, else the root."""
    stack = _stack()
    if stack:
        return stack[-1]
    return root_session()


def root_session() -> Session:
    """The shared fallback session used outside any ``with Session``."""
    global _root
    if _root is None:
        with _root_lock:
            if _root is None:
                _root = Session()
    return _root


def reset_root_session(
    backend: Optional[str] = None, options: Optional[dict] = None
) -> Session:
    """Replace the root session (test/benchmark isolation hook).

    Only affects code running *outside* explicit ``with Session(...)``
    blocks; active session stacks are untouched.
    """
    global _root
    with _root_lock:
        # `backend=None` falls through to the options dict (or the
        # option's default "dask"), so an options-supplied engine is
        # not clobbered.
        _root = Session(backend=backend, options=options)
        return _root


def _live_nodes(live_df) -> List[Node]:
    """Unwrap lazy wrappers / raw nodes passed as ``live_df``."""
    if not live_df:
        return []
    nodes = []
    for item in live_df:
        node = getattr(item, "_node", None)
        if node is None and isinstance(item, Node):
            node = item
        if node is not None:
            nodes.append(node)
    return nodes
