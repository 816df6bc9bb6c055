"""Noise and state controls of the benchmark, in one place.

Every workload hands the harness a fixed list of :class:`Op`; the
harness runs them pass after pass under the same rules:

- ``gc.disable()`` while an op runs and a ``gc.collect()`` after it
  (everything set-up allocated is frozen out of the collector's sight,
  so that collection only walks what the op itself left),
- the process-global caches (``result_cache()``, ``range_cache()``) are
  cleared before every op that is not declared ``warm``,
- no thread pool wider than the machine (:data:`MAX_WORKERS`), and the
  whole process on one CPU (``run.pin_to_one_cpu``),
- a millisecond-sized call is repeated ``Op.loops`` times, a count the
  workload fixes, until the op is at least 50 ms,
- an op's time is the clock's: the **best of the P passes**.  Nothing is
  normalised; :func:`calibration_seconds` is only reported,
- after every op: no live tracked bytes on the op's memory managers, an
  empty spill directory, no live ``ShuffleStore``, no pending prefetch.
  A violation makes the op count as failed; it never raises.

The layers are measured from outside: only public functions and the
public ``ExecutionStats`` counters are read here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NPROC = os.cpu_count() or 1
#: ``executor.max_workers`` of every threaded op.
MAX_WORKERS = min(2, NPROC)

_CALIB_DATA = np.random.default_rng(0).random(200_000)


def calibration_seconds() -> float:
    """A fixed numpy + pure-Python kernel, about 12 ms on the box the
    baselines were taken on: a gauge of the machine's speed, reported as
    ``driver.calib_s`` and never used to adjust anything."""
    started = time.perf_counter()
    np.sort(_CALIB_DATA)
    counts: Dict[int, int] = {}
    for i in range(40_000):
        counts[i % 500] = counts.get(i % 500, 0) + i
    return time.perf_counter() - started


def known_failures(workload: str) -> Dict[str, str]:
    """``{op name: error}`` of the ops ``known_failures.json`` lists for
    ``workload``: they stay in the pass and in ``ok_op_share``."""
    with open(os.path.join(BENCH_DIR, "known_failures.json")) as f:
        return {entry["op"]: entry["error"] for entry in json.load(f)
                if entry["workload"] == workload}


# ---------------------------------------------------------------------------
# Result comparison (references come from the eager engine, never from
# the lazy stack under test).
# ---------------------------------------------------------------------------


def _arrays_equal(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        # partition-wise partial sums associate differently from the
        # eager whole-column sum; anything beyond that is a wrong answer
        try:
            return bool(np.allclose(
                a.astype(float), b.astype(float),
                rtol=1e-9, atol=atol, equal_nan=True,
            ))
        except (TypeError, ValueError):
            return False
    if a.dtype.kind == "O" or b.dtype.kind == "O":
        return all(
            x == y or (x is None and y is None) or (x != x and y != y)
            for x, y in zip(a.tolist(), b.tolist())
        )
    return bool(np.array_equal(a, b))


def same_result(got, want, atol: float = 1e-9) -> bool:
    """Is the lazy stack's ``got`` the eager engine's ``want``?

    Order-sensitive; column names, index values and series names count.
    Floats may differ by ``atol`` (summation order), nothing else may.
    """
    kind = type(want).__name__
    if kind == "Series":
        return (
            type(got).__name__ == "Series"
            and got.name == want.name
            and _arrays_equal(got.index.to_array(), want.index.to_array(),
                              atol)
            and _arrays_equal(got.column.to_array(), want.column.to_array(),
                              atol)
        )
    if kind == "DataFrame":
        return (
            type(got).__name__ == "DataFrame"
            and list(got.columns) == list(want.columns)
            and all(
                _arrays_equal(got.column(c).to_array(),
                              want.column(c).to_array(), atol)
                for c in want.columns
            )
        )
    return _arrays_equal(np.asarray(got), np.asarray(want), atol)


def path_digest(path: str) -> str:
    """sha256 of a file, or of a directory's files in sorted order."""
    hasher = hashlib.sha256()
    if os.path.isdir(path):
        for base, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(base, name)
                hasher.update(os.path.relpath(full, path).encode())
                hasher.update(path_digest(full).encode())
    else:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                hasher.update(chunk)
    return hasher.hexdigest()


#: the optimizer-report entries that count a rewrite of the plan.
REWRITE_KEYS = ("cse", "pushdown", "scan_fold", "projection", "metadata",
                "pruned_partitions", "shuffle_lowered")


def run_stats(session) -> dict:
    """``ExecutionStats`` of the session's last run as a dict, plus how
    many rewrites the optimizer reported for it."""
    stats = session.last_execution_stats.to_dict()
    report = session.last_optimize_report or {}
    stats["optimizer_rewrites"] = sum(report.get(k, 0) for k in REWRITE_KEYS)
    return stats


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one call of an op reports back to the harness."""

    #: ``session.memory.peak`` of the call (the simulated peak, Fig. 15).
    peak_bytes: int = 0
    #: ``ExecutionStats.to_dict()`` of every collect the call made that
    #: the workload wants counted (nodes included).
    stats: List[dict] = dataclasses.field(default_factory=list)
    #: ``session.memory`` of the call's sessions, checked for tracked
    #: bytes left behind.  The manager, not the session: a session pins
    #: its plan nodes, and a collected root keeps its result by design.
    managers: list = dataclasses.field(default_factory=list)
    #: compares the call's result with its reference and returns what is
    #: wrong, or None.  The harness calls it once the clock has stopped,
    #: so checking costs the measurement nothing.
    check: Optional[Callable[[], Optional[str]]] = None
    #: wall of each collect inside the call, when the call is a batch.
    samples: List[float] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Op:
    """One measured operation: ``loops`` calls of ``fn``, each checked."""

    name: str
    #: ``fn(call)`` runs call number ``call`` (0 .. loops-1) once.
    fn: Callable[[int], Outcome]
    #: ran on the threaded scheduler: the peak depends on interleaving,
    #: so it is kept out of the end-to-end ``peak_bytes``.
    threaded: bool = False
    #: defined as running against warm process-global caches.
    warm: bool = False
    #: how many calls make the op; its time is all of them.  Fixed by
    #: the workload so that a millisecond-sized call becomes a >= 50 ms
    #: op -- never calibrated at run time: a count taken from a noisy
    #: warm-up pass would change what the op measures from run to run.
    loops: int = 1


@dataclasses.dataclass
class OpRecord:
    """Everything the measured passes observed of one op."""

    op: Op
    #: the error ``known_failures.json`` expects of this op, if any.
    known_failure: Optional[str] = None
    #: per pass, the op's wall seconds as the clock read them.
    seconds: List[float] = dataclasses.field(default_factory=list)
    peaks: List[int] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: stats dicts of the last call of the last pass (counters repeat).
    stats: List[dict] = dataclasses.field(default_factory=list)
    samples: List[float] = dataclasses.field(default_factory=list)
    leaked_bytes: int = 0
    spill_files_left: int = 0

    @property
    def best(self) -> float:
        """The op's time: the best of its passes.  The programs are
        deterministic and there is one client, so what differs from pass
        to pass is the machine's, and it only ever adds."""
        return min(self.seconds)


class Harness:
    """Runs ops under the noise controls and checks what they leave."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        os.makedirs(spill_dir, exist_ok=True)
        #: set by the traced pass: ``tracer.op(name)`` context manager.
        self.tracer = None

    # -- sessions --------------------------------------------------------

    def session(self, backend: str = "pandas", strategy: str = "serial",
                metastore=None, **options):
        """A fresh session with the harness-wide options applied.

        Keyword options use ``__`` for the dot (``memory__budget=...``).
        """
        from repro.core.session import Session

        opts = {
            "executor.strategy": strategy,
            "executor.max_workers": MAX_WORKERS,
            "memory.spill_dir": self.spill_dir,
        }
        opts.update({k.replace("__", "."): v for k, v in options.items()})
        return Session(backend=backend, options=opts, metastore=metastore)

    def span(self, name: str, layer: str):
        """A span around a call the tracer's wrappers cannot see (the
        harness's own calls into a layer); nothing outside the traced
        pass."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    # -- one op ----------------------------------------------------------

    def _reset_state(self) -> None:
        from repro.cache.result_cache import result_cache
        from repro.io.prefetch import range_cache

        result_cache().clear()
        range_cache().clear()

    def _left_behind(self, outcomes: List[Outcome], record) -> Optional[str]:
        from repro.io.prefetch import range_cache
        from repro.io.spill import live_store_count

        # sessions and their plan nodes are reference cycles: what looks
        # live until here may only have been waiting for the collector
        gc.collect()
        live = sum(m.live for o in outcomes for m in o.managers)
        left = os.listdir(self.spill_dir)
        if record is not None:
            record.leaked_bytes += live
            record.spill_files_left += len(left)
        if live:
            return f"{live} tracked bytes still live"
        if left:
            return f"{len(left)} spill entries left: {left[:3]}"
        if live_store_count():
            return f"{live_store_count()} ShuffleStore(s) still live"
        if range_cache().pending_count():
            return f"{range_cache().pending_count()} prefetches pending"
        return None

    def run_op(self, op: Op, record: Optional[OpRecord] = None) -> None:
        """Execute ``op`` once (``op.loops`` calls) and record it.
        Failures are recorded too, never raised."""
        if not op.warm:
            self._reset_state()
        span = self.tracer.op(op.name) if self.tracer else contextlib.nullcontext()
        outcomes: List[Outcome] = []
        error = None
        gc.disable()
        started = time.perf_counter()
        try:
            with span:
                for call in range(op.loops):
                    outcomes.append(op.fn(call))
            seconds = time.perf_counter() - started
            for outcome in outcomes:
                if error is None and outcome.check is not None:
                    error = outcome.check()
                outcome.check = None  # it holds the result alive
        except Exception as exc:  # noqa: BLE001 - a failed op is a data point
            seconds = time.perf_counter() - started
            error = (f"{type(exc).__name__}: {exc}\n"
                     + traceback.format_exc(limit=4))
        finally:
            gc.enable()
        left = self._left_behind(outcomes, record)
        error = error or left
        if record is None:  # set-up's pass: the measured ones count it
            return
        record.attempted += 1
        record.seconds.append(seconds)
        record.peaks.append(max((o.peak_bytes for o in outcomes), default=0))
        if outcomes:
            record.stats = outcomes[-1].stats
            record.samples = outcomes[-1].samples
        if error is not None:
            record.failed += 1
            record.errors.append(error)

    # -- passes ----------------------------------------------------------

    def run_pass(self, workload) -> None:
        """One unmeasured pass over the ops (set-up's first pass)."""
        for op in workload.ops:
            self.run_op(op)

    @staticmethod
    def freeze() -> None:
        """Everything set-up allocated leaves the collector's sight, so
        the collection after each measured op walks only what that op
        made."""
        gc.collect()
        gc.freeze()

    def measure(self, workload, seconds: float, min_passes: int,
                max_passes: Optional[int] = None) -> "Measurement":
        """Measured passes: at least ``min_passes``, then as many more
        as end within ``seconds`` of measuring."""
        expected = known_failures(workload.name)
        records = {op.name: OpRecord(op, expected.get(op.name))
                   for op in workload.ops}
        pass_seconds: List[float] = []
        cpu_started = time.process_time()
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            for op in workload.ops:
                self.run_op(op, records[op.name])
            now = time.perf_counter()
            pass_seconds.append(now - pass_started)
            done = len(pass_seconds)
            if max_passes is not None and done >= max_passes:
                break
            # another pass would end after the deadline
            if done >= min_passes and (
                    now - started + statistics.median(pass_seconds)
                    > seconds):
                break
        return Measurement(
            records=list(records.values()),
            pass_seconds=pass_seconds,
            cpu_seconds=time.process_time() - cpu_started,
        )


@dataclasses.dataclass
class Measurement:
    records: List[OpRecord]
    pass_seconds: List[float]
    cpu_seconds: float

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.records)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.records)

    @property
    def failed_unexpectedly(self) -> int:
        """Failures ``known_failures.json`` does not list."""
        return sum(r.failed for r in self.records if not r.known_failure)

    def wall(self) -> float:
        """The end-to-end ``wall_s``: the sum of the ops' best passes."""
        return sum(r.best for r in self.records)

    def wall_median(self) -> float:
        return sum(statistics.median(r.seconds) for r in self.records)

    def wall_max(self) -> float:
        return sum(max(r.seconds) for r in self.records)

    def peak_geomean(self) -> float:
        """Geometric mean of the serial ops' simulated peaks: a 2x
        saving on a 0.2 MB op counts as much as on a 10 MB one."""
        peaks = [
            max(r.peaks) for r in self.records
            if not r.op.threaded and not r.failed and max(r.peaks) > 0
        ]
        if not peaks:
            return 0.0
        return math.exp(sum(math.log(p) for p in peaks) / len(peaks))

    def ok_share(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)

    def group_seconds(self, prefix: str) -> float:
        """Sum of the times of the ops whose name starts ``prefix``."""
        return sum(r.best for r in self.records
                   if r.op.name.startswith(prefix))

    def stat_sum(self, key: str, prefix: str = "") -> float:
        """Sum of one ``ExecutionStats`` counter over the last pass."""
        return sum(
            s.get(key) or 0
            for r in self.records if r.op.name.startswith(prefix)
            for s in r.stats
        )


def op_class_seconds(stats: List[dict]) -> Dict[str, float]:
    """``NodeStat.wall_seconds`` summed by operator class."""
    classes = {"read": 0.0, "filter": 0.0, "groupby": 0.0,
               "merge": 0.0, "other": 0.0}
    for stat in stats:
        for node in stat.get("nodes", ()):
            op = node["op"]
            if op in ("read_csv", "scan", "from_pandas", "from_data",
                      "from_cached"):
                key = "read"
            elif op == "filter":
                key = "filter"
            elif op.startswith("groupby") or op in (
                    "partial_agg", "combine_agg", "series_agg"):
                key = "groupby"
            elif op in ("merge", "concat", "shuffle_write", "shuffle_read",
                        "compact"):
                key = "merge"
            else:
                key = "other"
            classes[key] += node["wall_seconds"]
    return classes


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A fixed list of ops over inputs generated from the run's seed.

    Set-up is split so ``run.set_up`` can time its steps, and repeatable
    so it can rehearse them (several rounds into fresh directories, the
    last kept): :meth:`prepare` writes the inputs, :meth:`make_references`
    computes the expected results with the eager engine, and
    :meth:`build_ops` lists the measured ops in their fixed order.
    """

    name = ""

    def __init__(self, harness: Harness, seed: int, quick: bool):
        self.harness = harness
        self.seed = seed
        self.quick = quick
        self.root = ""
        self.ops: List[Op] = []

    def prepare(self, root: str) -> None:
        raise NotImplementedError

    def make_references(self) -> None:
        raise NotImplementedError

    def build_ops(self) -> List[Op]:
        raise NotImplementedError

    def input_paths(self) -> List[str]:
        """Generated input files and directories, for the digests."""
        raise NotImplementedError

    def probe_inputs(self) -> dict:
        """What the per-layer probes run on: ``{"csv": path}`` at least."""
        raise NotImplementedError

    def layer_metrics(self, measurement: Measurement) -> Dict[str, float]:
        """Per-layer metrics only this workload's ops can give."""
        return {}

    def close(self) -> None:
        pass
