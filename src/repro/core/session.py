"""LaFP sessions: explicit, thread-safe execution state.

A :class:`Session` owns everything one logical program needs:

- its options (:class:`~repro.core.config.SessionOptions`, including the
  ``backend.engine`` choice -- default ``dask`` as in section 2.6),
- per-session :class:`~repro.backends.engine.Engine` instances resolved
  through an :class:`~repro.backends.engine.EngineRegistry`, so two
  sessions can run different backends concurrently,
- a per-session :class:`~repro.memory.manager.MemoryManager` (budgeted
  via the ``memory.budget`` option), so concurrent sessions account and
  budget their allocations independently -- the root session adopts the
  historical process-wide manager,
- an :class:`~repro.graph.scheduler.ExecutorRegistry` from which the
  ``executor.strategy`` option picks the execution strategy (serial /
  threaded / fused) for every ``collect()``,
- the chain of pending lazy-print nodes (section 3.3),
- the set of persisted nodes from ``persist()`` / ``compute(live_df=...)``
  calls (section 3.5), released once no longer live,
- its source table (:mod:`repro.io.source_table`): one snapshot of each
  scanned file's header, partitions and metastore entry,
- the node registry that resolves f-string escape markers back to nodes.

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

from repro.backends.engine import DEFAULT_REGISTRY, Engine, EngineRegistry
from repro.core.config import SessionOptions
from repro.graph import Node, collect_subgraph, physical_plan, render_plan
from repro.graph.scheduler import (
    DEFAULT_EXECUTORS,
    ExecutionStats,
    ExecutorRegistry,
    Scheduler,
)
from repro.memory.manager import MemoryManager, memory_manager as _root_memory


#: "the memory.budget option has never written through to the manager".
_BUDGET_UNSYNCED = object()


def _auto_worker_cap() -> int:
    """Pool size for ``executor.max_workers="auto"``: the CPU count,
    capped at 8."""
    return max(1, min(8, os.cpu_count() or 4))


def _shutdown_pool(pool, wait: bool = True) -> None:
    """Best-effort pool shutdown (module-level so a session finalizer
    never keeps the session alive through its own cell)."""
    try:
        pool.shutdown(wait=wait, cancel_futures=True)
    except Exception:  # noqa: BLE001 - already-broken pools may raise
        pass


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
        registry: Optional[EngineRegistry] = None,
        metastore=None,
        executors: Optional[ExecutorRegistry] = None,
        memory: Optional[MemoryManager] = None,
    ):
        self.options = SessionOptions(options)
        if backend is not None:
            self.options.set("backend.engine", backend)
        self.registry = registry or DEFAULT_REGISTRY
        self.executors = executors or DEFAULT_EXECUTORS
        self._engines: Dict[str, Engine] = {}
        # Each session accounts memory on its own manager; the root
        # session injects the historical process-wide one.
        if memory is None:
            memory = MemoryManager()
        self._memory = memory
        #: manager budget saved before the first option write-through, so
        #: leaving an option_context restores it (sentinel = never synced).
        self._budget_before_option: object = _BUDGET_UNSYNCED
        self.last_print: Optional[Node] = None
        self.pending_prints: List[Node] = []
        self.node_registry: Dict[int, Node] = {}
        self.persisted: List[Node] = []
        self.metastore = metastore  # set lazily; tests may inject one
        from repro.io.source_table import SourceTable

        self.sources = SourceTable()
        self.stats = {"computes": 0, "nodes_executed": 0}
        self.last_optimize_report: Optional[dict] = None
        self.last_execution_stats: Optional[ExecutionStats] = None
        #: analysis-gate memo: roots key -> (graph version, diagnostics).
        #: The node registry only ever grows, so its size is a cheap
        #: version stamp for "was any node built since the last gate?".
        self._analysis_cache: Dict[tuple, tuple] = {}
        #: plan-fingerprint memo: node id -> (graph version, source stat
        #: deps, digest); same versioning scheme as the analysis gate
        #: (see repro.cache.fingerprint).
        self._fingerprint_cache: Dict[int, tuple] = {}
        #: the CacheRunState of the last ``optimize()`` (None with
        #: ``optimizer.reuse`` off): where the reuse pass leaves it for
        #: _run to hand to the scheduler.
        self._cache_run = None
        #: lazily-created process-strategy worker pool (see
        #: :meth:`process_pool`), its creation key, and the finalizer
        #: that shuts it down when the session is garbage-collected.
        self._process_pool = None
        self._process_pool_key: Optional[tuple] = None
        self._pool_finalizer: Optional[weakref.finalize] = None

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
    def engine(self) -> Engine:
        """The engine named by ``backend.engine``, instantiated per
        session and cached, so its state survives switching away and
        back."""
        name = self.backend_name.lower()
        engine = self._engines.get(name)
        if engine is None:
            engine = self.registry.create(name)
            self._engines[name] = engine
        return engine

    @property
    def backend(self):
        return self.engine.backend

    def set_backend(self, name: str) -> None:
        """Routes through the options so there is one source of truth."""
        self.options.set("backend.engine", name)

    # -- memory ------------------------------------------------------------

    @property
    def memory(self) -> MemoryManager:
        """This session's memory manager.

        An explicitly-set ``memory.budget`` option writes through on
        access, and the manager's prior budget comes back once the
        option is unset again -- ``option_context("memory.budget", ...)``
        budgets exactly its scope.  When the option was never touched
        the manager's own budget is authoritative, so harness code that
        assigns ``memory_manager.budget`` directly keeps working at root.
        """
        if self.options.is_set("memory.budget"):
            if self._budget_before_option is _BUDGET_UNSYNCED:
                self._budget_before_option = self._memory.budget
            self._memory.budget = self.options.get("memory.budget")
        elif self._budget_before_option is not _BUDGET_UNSYNCED:
            self._memory.budget = self._budget_before_option
            self._budget_before_option = _BUDGET_UNSYNCED
        return self._memory

    # -- scheduling --------------------------------------------------------

    def scheduler(self, backend=None) -> Scheduler:
        """Build the scheduler the ``executor.strategy`` option names,
        running nodes on ``backend`` (default: this session's engine's;
        baseline Dask mode passes its own)."""
        strategy = str(self.options.get("executor.strategy")).lower()
        return self.executors.spec(strategy).create(
            self.backend if backend is None else backend,
            session=self,
            memory=self.memory,
            max_workers=self._max_workers(),
            static_order=bool(self.options.get("executor.static_order")),
        )

    def _max_workers(self) -> int:
        """``executor.max_workers``, with ``"auto"`` resolved to the CPU
        cap."""
        raw = self.options.get("executor.max_workers")
        return _auto_worker_cap() if raw == "auto" else int(raw)

    def process_pool(self, workers: Optional[int] = None):
        """The session's shared process-strategy worker pool.

        Created on first use by :class:`~repro.graph.scheduler.process.
        ProcessScheduler` and reused across ``collect()`` calls (forking
        a pool per execution would dominate small plans); resized when
        ``executor.max_workers`` changes.  ``close()`` shuts it down; a
        finalizer does the same when the session is garbage-collected.
        """
        from repro.graph.scheduler.process import create_worker_pool

        workers = self._max_workers() if workers is None else int(workers)
        start_method = self.options.get("executor.process_start_method")
        key = (workers, start_method, self.backend_name.lower())
        if self._process_pool is not None and self._process_pool_key != key:
            self.close_pool()
        if self._process_pool is None:
            self._process_pool = create_worker_pool(
                workers, start_method, self.engine.spec.factory
            )
            self._process_pool_key = key
            # wait=False: the collector runs this at whatever allocation
            # it likes, including one inside ``threading``'s own
            # bookkeeping lock -- joining the pool's manager thread
            # there deadlocks, and every later ``Thread.start()`` with it
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._process_pool, False
            )
        return self._process_pool

    def discard_pool(self, pool) -> None:
        """Forget ``pool`` (it broke); a fresh one is built on next use."""
        if self._process_pool is pool:
            self._process_pool = None
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        _shutdown_pool(pool)

    def close_pool(self) -> None:
        """Shut down the process-strategy worker pool, if one exists."""
        pool, self._process_pool = self._process_pool, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if pool is not None:
            _shutdown_pool(pool)

    def close(self) -> None:
        """Release the session's external resources (worker pools).

        Idempotent; the session remains usable afterwards (pools are
        recreated on demand).  ``with Session(...)`` blocks do *not*
        close on exit -- a session can be re-entered -- so servers that
        own long-lived sessions call this explicitly.
        """
        self.close_pool()

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
        self.node_registry[node.id] = node
        _nodes_by_id[node.id] = node
        return node

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

        # Re-collecting an unchanged plan (the common steady state: the
        # same frame computed in a loop) reuses the previous analysis --
        # the raw graph is append-only between computations, so "same
        # roots + no new nodes" means "same plan".
        key = tuple(sorted({r.id for r in roots}))
        version = len(self.node_registry)
        cached = self._analysis_cache.get(key)
        if cached is not None and cached[0] == version:
            diagnostics = cached[1]
        else:
            diagnostics = analyze_plan(roots, session=self)
            if len(self._analysis_cache) >= 64:
                self._analysis_cache.clear()
            self._analysis_cache[key] = (version, diagnostics)
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

#: node id -> node (weak: an entry lives exactly as long as its node,
#: i.e. no longer than the owning session's registry keeps it -- this
#: adds no growth beyond the registry itself).  Node ids come from one
#: process-wide counter, so ids are unambiguous across sessions.
_nodes_by_id: "weakref.WeakValueDictionary[int, Node]" = (
    weakref.WeakValueDictionary()
)


def node_for_id(node_id: int) -> Optional[Node]:
    """Resolve a registered node by id, across all live sessions.

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
    # A forked child (e.g. a process-strategy worker) inherits the
    # forking thread's active-session stack; those sessions -- and
    # their memory budgets -- belong to the parent, so the child
    # starts from the root session.
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
                _root = Session(memory=_root_memory)
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
        # registry default "dask"), so an options-supplied engine is
        # not clobbered.  The root session always adopts the process
        # manager so direct `memory_manager.budget = ...` keeps working.
        _root = Session(backend=backend, options=options, memory=_root_memory)
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
