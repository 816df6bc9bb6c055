"""The process strategy: ship pure pipeline tasks to a worker pool.

The GIL caps the threaded strategy on CPU-bound operators (string
methods, Python-level ``apply``); this strategy runs them on a
``ProcessPoolExecutor`` instead.  The unit of shipping is a *task* --
one fused linear chain (:func:`~repro.graph.scheduler.fused.
fuse_linear_chains`), so a scan -> filter -> project pipeline crosses
the process boundary once, not once per node.

A task ships through the pickle seam PR 2 called out: its steps are
``(op, args, input_slots)`` triples (``Partition`` lists and predicate
conjuncts in ``args`` are serializable by design) plus the pickled
external input frames; a worker replays them against its own backend
instance and returns the pickled final result beside its account of the
work: the counters its steps bumped and the bytes each step registered
and released with the worker's manager, which the parent adds to the
run's record -- a count means the same thing wherever the node ran.
The parent unpickles the result on the coordination thread -- where
the owning session is active -- so the rebuilt
:class:`~repro.frame.column.Column` buffers register with the *parent
session's* memory manager: result-size accounting is charged back
exactly as if the node had run in-process.

Graceful fallback keeps the strategy total: tasks whose args or inputs
do not pickle (lambdas in ``apply``/``map``), side-effect ops (prints
must appear on the parent's stdout, in program order), shuffle-store
plumbing (live locks, parent-side spill files), and workers that return
an unpicklable result all run inline on the coordination thread
instead, with the session's accounting semantics unchanged.  A scan ships with the :class:`~repro.io.source.Partition`
objects it reads (byte ranges included), so a worker never re-lists a
source against a metastore it does not have.

Fault tolerance: shipped tasks are pure functions of already-
materialized inputs, so when a worker dies mid-task
(``BrokenProcessPool``) the pool is discarded, a fresh one is built,
and the task is re-run up to ``executor.process_retries`` times before
an :class:`~repro.graph.scheduler.base.ExecutionError` surfaces --
through the run scope's unwind, like any failure, so every result this
run produced is dropped and the memory budget and any spill files are
reclaimed.

Scheduling is the shared core's: this module is the *process-pool
seam* of :meth:`Scheduler._drive_pool` -- what ships and how it lands,
the retry, and the pool's lifecycle -- and nothing else.

Workers are started through the session's cached pool
(:meth:`~repro.core.session.Session.process_pool`; ``fork`` where
available -- ``executor.process_start_method`` overrides) and
initialized by :func:`_pool_worker_init`: forked children inherit the
parent's session stack, simulated budget, and live spill-store
finalizers, none of which belong to them (the ``os.register_at_fork``
hooks in ``repro.core.session`` and ``repro.io.spill`` clear the
dangerous parts for *any* fork; the initializer resets the rest).
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.graph.node import Node
from repro.graph.scheduler.base import (
    ExecutionError, ReadySet, Scheduler, Task,
)
from repro.graph.scheduler.fused import fuse_linear_chains
from repro.graph.scheduler.stats import ExecutionStats, NodeStat

#: ops that must run in the parent whatever their picklability: shuffle
#: stores hold locks and parent-side spill directories.
_INLINE_OPS = frozenset({"shuffle_write", "shuffle_read"})


def _runs_inline(node: Node) -> bool:
    """Must ``node`` run in the parent, whatever its inputs' values?
    Side effects and shuffle-store plumbing."""
    return node.spec.side_effect or node.op in _INLINE_OPS


# ---------------------------------------------------------------------------
# Worker side (these run inside pool processes).
# ---------------------------------------------------------------------------

#: the worker's backend instance, built once by the pool initializer.
_WORKER_BACKEND = None


class _StepNode:
    """The slice of :class:`~repro.graph.node.Node` the backend dispatch
    reads (``apply_generic`` and the shuffle ops use ``op`` and ``args``
    only), rebuilt worker-side from a shipped step."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: dict) -> None:
        self.op = op
        self.args = args


class _UnpicklableResult:
    """Marker a worker returns instead of a result that will not
    pickle; the parent re-runs the task inline."""

    __slots__ = ("type_name",)

    def __init__(self, type_name: str) -> None:
        self.type_name = type_name


def _pool_worker_init(backend_factory: Callable[[], Any]) -> None:
    """Pool initializer: give the worker a clean runtime of its own.

    Runs in the child.  Fork-started workers inherit the parent's root
    session (whose options may carry a simulated budget) -- a worker
    must never OOM against the parent's budget, so the root session is
    rebuilt and the process manager unbudgeted.  Spawn-started workers
    import everything fresh and this is a no-op beyond backend setup.
    The backend comes from the engine's own factory, so an engine of a
    session's private registry runs in the worker too.
    """
    global _WORKER_BACKEND
    from repro.core.session import reset_root_session
    from repro.memory.manager import memory_manager

    reset_root_session()
    memory_manager.budget = None
    _WORKER_BACKEND = backend_factory()


def _run_task(payload: bytes) -> Tuple[
        bytes, Dict[str, int], List[Tuple[int, int]]]:
    """Replay one shipped task; returns ``(pickled final result, the
    counters the steps bumped, per-step (registered, released) bytes)``.

    ``payload`` decodes to ``(steps, externals)``: each step is
    ``(op, args, slots)`` where a slot ``("ext", i)`` reads the i-th
    external input and ``("step", j)`` the j-th step's output.
    Exceptions propagate (the pool pickles them back to the parent).
    """
    from repro.memory import current_memory_manager

    steps, externals = pickle.loads(payload)
    backend = _WORKER_BACKEND
    assert backend is not None, "worker pool initializer did not run"
    memory = current_memory_manager()
    stats = ExecutionStats(strategy="process")
    results: List[object] = []
    step_bytes: List[Tuple[int, int]] = []
    with stats.bound():
        for op, args, slots in steps:
            inputs = [
                externals[index] if kind == "ext" else results[index]
                for kind, index in slots
            ]
            registered = memory.total_registered
            released = memory.total_released
            results.append(backend.apply(_StepNode(op, args), inputs))
            step_bytes.append((memory.total_registered - registered,
                               memory.total_released - released))
    final = results[-1]
    try:
        blob = pickle.dumps(final, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - anything unpicklable
        blob = pickle.dumps(_UnpicklableResult(type(final).__name__))
    counts = {k: v for k, v in stats.counters().items() if v}
    return blob, counts, step_bytes


def create_worker_pool(max_workers: int, start_method: Optional[str],
                       backend_factory: Callable[[], Any]):
    """A ``ProcessPoolExecutor`` whose workers run LaFP tasks.

    ``start_method=None`` picks ``fork`` where the platform has it
    (workers start in milliseconds and inherit loaded modules), else
    the platform default.  Sessions cache the pool across collects --
    see :meth:`repro.core.session.Session.process_pool`.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else None
    context = (
        multiprocessing.get_context(start_method)
        if start_method is not None else None
    )
    return ProcessPoolExecutor(
        max_workers=max(1, int(max_workers)),
        mp_context=context,
        initializer=_pool_worker_init,
        initargs=(backend_factory,),
    )


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


class ProcessScheduler(Scheduler):
    """Fused-chain tasks on a process pool, inline fallback otherwise."""

    name = "process"
    default_workers = 4
    #: pool created for a sessionless run, shut down afterwards.
    _private_pool: Any = None

    # -- pool management ---------------------------------------------------

    def _pool(self):
        if self.session is not None:
            return self.session.process_pool(self.max_workers)
        if self._private_pool is None:
            from repro.backends.engine import DEFAULT_REGISTRY

            name = getattr(self.backend, "name", "pandas")
            self._private_pool = create_worker_pool(
                self.max_workers, None, DEFAULT_REGISTRY.spec(name).factory)
        return self._private_pool

    def _discard_pool(self, pool) -> None:
        """The pool broke (a worker died): drop it so the next shipped
        task gets a fresh one."""
        if self.session is not None:
            self.session.discard_pool(pool)
            return
        if self._private_pool is pool:
            self._private_pool = None
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may raise
            pass

    # -- strategy hooks ----------------------------------------------------

    def _tasks(self, order: List[Node], root_ids: Set[int], consumers,
               stats: ExecutionStats) -> List[Task]:
        """Fused chains, each cut after its inline-only head: a chain
        ships whole or not at all, so a head that must stay here (a
        ``shuffle_read``) would otherwise pull the shippable tail --
        UDFs included -- into this process."""
        tasks: List[Task] = []
        for chain in fuse_linear_chains(order, root_ids, consumers):
            while len(chain) > 1 and _runs_inline(chain[0]):
                tasks.append(chain[:1])
                chain = chain[1:]
            tasks.append(chain)
        return tasks

    def _run(self, ready: ReadySet, stats: ExecutionStats) -> None:
        from concurrent.futures.process import BrokenProcessPool

        retries = 1 if self.session is None else int(
            self.session.options.get("executor.process_retries"))
        #: head node id -> times the task was lost to a dying worker.
        attempts: Dict[int, int] = {}

        def retry(lost: List[Task]) -> None:
            """The pool broke under ``lost``: replace it and re-queue
            them (pure functions of materialized inputs), within the
            ``executor.process_retries`` budget."""
            self._discard_pool(self._pool())
            now = time.perf_counter()
            for task in lost:
                head = task[0].id
                attempts[head] = attempts.get(head, 0) + 1
                if attempts[head] > retries:
                    raise ExecutionError(
                        f"process pool worker died {attempts[head]} "
                        f"time(s) running task {[n.op for n in task]}; "
                        f"giving up after executor.process_retries={retries}"
                    )
                stats.add(process_retries=1)
                ready.push(task, now)

        def submit(task: Task, ready_at: float):
            payload = self._ship_payload(task)
            if payload is None:
                stats.add(process_fallbacks=1)
                self._run_inline(ready, task, ready_at, stats)
                return None
            try:
                return self._pool().submit(_run_task, payload)
            except BrokenProcessPool:  # the pool broke while idle
                retry([task])
                return None

        def collect(future, pending) -> None:
            try:
                # a worker-raised plan error propagates with its
                # original type, like every other strategy's.
                landed = future.result()
            except BrokenProcessPool:
                # every in-flight future on a broken pool is lost
                lost = [entry[0] for entry in pending.values()]
                pending.clear()
                retry(lost)
                return
            task, ready_at, submitted = pending.pop(future)
            self._land_result(task, landed, submitted, ready_at, stats)
            self._finish(ready, task)

        try:
            self._drive_pool(ready, stats, submit, collect)
        finally:
            if self._private_pool is not None:
                self._private_pool.shutdown(wait=True, cancel_futures=True)
                self._private_pool = None

    # -- shipping ----------------------------------------------------------

    def _ship_payload(self, chain: List[Node]) -> Optional[bytes]:
        """Serialize ``chain`` for a worker, or ``None`` to run inline.

        Inline reasons: side-effect ops (parent stdout, program order),
        shuffle-store plumbing in ops or input values, and any args or
        input that fails to pickle (lambdas in ``apply``/``map`` being
        the common case).
        """
        from repro.io.spill import ShuffleStore

        steps: List[Tuple[str, dict, List[Tuple[str, int]]]] = []
        externals: List[object] = []
        external_index: Dict[int, int] = {}
        step_index: Dict[int, int] = {}
        for node in chain:
            if _runs_inline(node):
                return None
            slots: List[Tuple[str, int]] = []
            for inp in node.inputs:
                if inp.id in step_index:
                    slots.append(("step", step_index[inp.id]))
                    continue
                value = inp.result
                if isinstance(value, ShuffleStore):
                    return None
                if inp.id not in external_index:
                    external_index[inp.id] = len(externals)
                    externals.append(value)
                slots.append(("ext", external_index[inp.id]))
            step_index[node.id] = len(steps)
            steps.append((node.op, node.args, slots))
        try:
            return pickle.dumps(
                (steps, externals), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:  # noqa: BLE001 - unpicklable args or inputs
            return None

    def _land_result(self, chain: Task, landed, submitted: float,
                     ready_at: float, stats: ExecutionStats) -> None:
        """Unpickle a worker's result on the coordination thread and
        add the worker's account of the chain to the run's record.

        This thread has the owning session active, so the rebuilt
        column buffers register with the parent session's manager --
        the charge-back half of the shipping contract; the landing is
        charged to the chain's last node on top of what that step
        registered in the worker.
        """
        blob, counts, step_bytes = landed
        memory = self.memory
        reg_before = memory.total_registered
        rel_before = memory.total_released
        value = pickle.loads(blob)
        if isinstance(value, _UnpicklableResult):
            # the chain ran, but its result cannot cross the boundary
            # (exotic op output); re-run it here -- and count that run,
            # not the worker's.
            for node in chain:
                self._execute_node(node, stats)
            stats.add(process_fallbacks=1)
            return
        final = chain[-1]
        if final.persist:
            value = self.backend.persist(value)
        final.set_result(value)
        done = time.perf_counter()
        registered, released = step_bytes[-1]
        step_bytes[-1] = (
            registered + memory.total_registered - reg_before,
            released + memory.total_released - rel_before,
        )
        stats.add(*(
            NodeStat.of(
                node,
                wall_seconds=(done - submitted) if node is final else 0.0,
                queue_wait_seconds=(
                    max(0.0, submitted - ready_at) if node is chain[0]
                    else 0.0
                ),
                bytes_registered=registered,
                bytes_released=released,
                worker="process-pool",
                bytes_estimated=self._estimates.get(node.id),
            )
            for node, (registered, released) in zip(chain, step_bytes)
        ), process_tasks=1, **counts)
        if self.cache_state is not None:
            self.cache_state.offer(final, value, done - submitted)
