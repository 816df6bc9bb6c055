"""Measurement runner: (program x mode x size) under a simulated budget.

Reproduces the paper's experimental grid (section 5):

- six modes: ``pandas`` / ``modin`` / ``dask`` baselines and
  ``lafp_pandas`` / ``lafp_modin`` / ``lafp_dask`` (LPandas / LModin /
  LDask in Figure 12),
- three sizes ``S`` / ``M`` / ``L`` scaled 1 : 3 : 9 like 1.4 / 4.2 /
  12.6 GB,
- a simulated RAM budget of ``(32 / 12.6) x`` the program's L-size data
  (the paper machine's RAM:data ratio), so out-of-memory happens for the
  same structural reasons,
- wall-clock seconds, simulated peak bytes, success/OOM, per-node
  executor statistics, and the md5 of the saved result for regression
  checking.

Programs run in-process via ``runpy`` (so ``pd.analyze()``'s reflection
finds real source files) with stdout captured.  Every cell runs in its
own :class:`Session` carrying its dataset/result directories
(``workload.*`` options), its memory budget (``memory.budget``), and its
scheduler strategy (``executor.strategy``); stdout capture routes by the
writing thread's session.  Cells therefore no longer race on paths,
budgets, or output -- the remaining process-global state is the
dask/plot *compat-module* state, so concurrent cells should stick to
modes and programs that do not share it (e.g. ``lafp_pandas``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import time
from typing import Dict, Iterable, List, Optional

from repro.core.session import Session
from repro.metastore import MetaStore
from repro.workloads import datagen
from repro.workloads.programs import PROGRAMS
from repro.workloads.resultio import file_md5

#: size name -> row multiplier (paper: 1.4 / 4.2 / 12.6 GB = 1 : 3 : 9).
SCALES: Dict[str, int] = {"S": 1, "M": 3, "L": 9}

#: the paper machine's RAM : largest-dataset ratio (32 GB : 12.6 GB).
RAM_RATIO = 32 / 12.6

MODES = ["pandas", "lafp_pandas", "modin", "lafp_modin", "dask", "lafp_dask"]

_HEADERS = {
    "pandas": "import repro.workloads.pandas_compat as pd\n",
    "modin": "import repro.workloads.modin_compat as pd\n",
    "dask": "import repro.workloads.dask_compat as pd\n",
    "lafp_pandas": (
        "import repro.lazyfatpandas.pandas as pd\n"
        "pd.BACKEND_ENGINE = pd.BackendEngines.PANDAS\n"
        "pd.analyze()\n"
    ),
    "lafp_modin": (
        "import repro.lazyfatpandas.pandas as pd\n"
        "pd.BACKEND_ENGINE = pd.BackendEngines.MODIN\n"
        "pd.analyze()\n"
    ),
    "lafp_dask": (
        "import repro.lazyfatpandas.pandas as pd\n"
        "pd.BACKEND_ENGINE = pd.BackendEngines.DASK\n"
        "pd.analyze()\n"
    ),
}

_BACKEND_OF_MODE = {
    "lafp_pandas": "pandas",
    "lafp_modin": "modin",
    "lafp_dask": "dask",
}

#: header for static linting: the lazy facade *without* ``pd.analyze()``
#: (the source rewriter replaces execution; lint wants the program to
#: build its task graphs so the plan analyzer can inspect them).
_LINT_HEADER = (
    "import repro.lazyfatpandas.pandas as pd\n"
    "pd.BACKEND_ENGINE = pd.BackendEngines.PANDAS\n"
)


class _SessionStdoutRouter(io.TextIOBase):
    """Routes ``print`` output to the buffer of the *writing session*.

    ``contextlib.redirect_stdout`` swaps the process-global ``sys.stdout``,
    so two grid cells capturing concurrently would restore each other's
    buffers out of order and cross-attribute output.  The router is
    installed once (refcounted) and dispatches each write by the calling
    thread's current session -- which is also correct for the threaded
    scheduler, whose worker threads activate the cell's session.
    """

    def __init__(self, fallback):
        self.fallback = fallback
        self._lock = threading.Lock()
        self._buffers: Dict[int, io.StringIO] = {}

    def register(self, session, buffer: io.StringIO) -> None:
        with self._lock:
            self._buffers[id(session)] = buffer

    def unregister(self, session) -> None:
        with self._lock:
            self._buffers.pop(id(session), None)

    def _target(self):
        from repro.core.session import current_session

        with self._lock:
            return self._buffers.get(id(current_session()), self.fallback)

    def write(self, text: str) -> int:
        return self._target().write(text)

    def flush(self) -> None:
        self._target().flush()

    def writable(self) -> bool:
        return True


_router_lock = threading.Lock()
_router: Optional[_SessionStdoutRouter] = None
_router_uses = 0


@contextlib.contextmanager
def _capture_session_stdout(session, buffer: io.StringIO):
    """Capture everything ``session`` prints into ``buffer``.

    Installs the router on first use and restores the original stdout
    after the last concurrent capture ends (unless something else --
    e.g. a test harness -- replaced ``sys.stdout`` in between; then it
    is left alone)."""
    global _router, _router_uses
    with _router_lock:
        if _router is None:
            _router = _SessionStdoutRouter(sys.stdout)
        elif sys.stdout is not _router:
            # something external (a test harness) replaced stdout while
            # captures were active: keep the ONE router -- earlier cells
            # stay attached to their buffers -- and adopt the new stream
            # as the fallback for non-session output.
            _router.fallback = sys.stdout
        sys.stdout = _router
        router = _router
        _router_uses += 1
        router.register(session, buffer)
    try:
        yield buffer
    finally:
        with _router_lock:
            router.unregister(session)
            _router_uses -= 1
            if _router_uses == 0:
                if sys.stdout is router:
                    sys.stdout = router.fallback
                if _router is router:
                    _router = None


@dataclasses.dataclass
class RunResult:
    """Outcome of one (program, mode, size) execution."""

    program: str
    mode: str
    size: str
    ok: bool
    seconds: float
    peak_bytes: int
    error: Optional[str] = None
    result_hash: Optional[str] = None
    stdout: str = ""
    #: the ``executor.strategy`` the cell ran under.
    strategy: Optional[str] = None
    #: the physical source format the cell's reads targeted (None = csv).
    source_format: Optional[str] = None
    #: scheduler stats of the cell's last execution (lafp modes only):
    #: per-node wall time, queue wait, bytes, fusion/throttle counters.
    execution_stats: Optional[dict] = None

    @property
    def label(self) -> str:
        return f"{self.program}/{self.mode}/{self.size}"

    def to_dict(self) -> dict:
        """JSON-ready record (stdout elided; it can be large)."""
        out = dataclasses.asdict(self)
        out.pop("stdout")
        return out


@dataclasses.dataclass
class LintReport:
    """Outcome of statically analyzing one program without executing."""

    program: str
    diagnostics: list
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """No crash and no error-severity diagnostic."""
        return self.error is None and not any(
            d.is_error for d in self.diagnostics
        )

    def render(self) -> str:
        from repro.analysis.plan import render_diagnostics

        body = render_diagnostics(self.diagnostics)
        if self.error:
            body += f"\nlint aborted early: {self.error}"
        return body


class Runner:
    """Owns data directories, the metastore, and run orchestration."""

    def __init__(
        self,
        workdir: Optional[str] = None,
        base_rows: Optional[int] = None,
        enforce_budget: bool = True,
    ):
        self.workdir = workdir or tempfile.mkdtemp(prefix="lafp-bench-")
        self.base_rows = base_rows or int(
            os.environ.get("LAFP_BASE_ROWS", datagen.BASE_ROWS)
        )
        self.enforce_budget = enforce_budget
        self.metastore = MetaStore(os.path.join(self.workdir, "metastore"))
        self._generated: Dict[str, set] = {}
        #: (dataset, fmt) variant pairs already emitted, per size.
        self._variants: Dict[str, set] = {}
        #: serializes dataset generation so concurrent cells hitting an
        #: unprepared size never interleave writes to the same CSV.
        self._prepare_lock = threading.Lock()

    # -- data preparation ---------------------------------------------------

    def data_dir(self, size: str) -> str:
        return os.path.join(self.workdir, f"data_{size}")

    def prepare(
        self,
        sizes: Iterable[str] = ("S",),
        programs=None,
        variants: Iterable[str] = (),
    ) -> None:
        """Generate datasets (and metadata) for the requested sizes.

        ``variants`` additionally emits source-format siblings (JSONL /
        hive dataset) with *exact* per-partition statistics in the
        metastore -- unsampled min/max is what makes partition pruning a
        proof rather than a guess.

        Thread-safe: concurrent cells requesting the same size serialize
        here, so a dataset is generated exactly once and never read
        half-written."""
        names = set()
        for program in programs or PROGRAMS:
            names.update(PROGRAMS[program].datasets)
        with self._prepare_lock:
            for size in sizes:
                done = self._generated.setdefault(size, set())
                rows = self.base_rows * SCALES[size]
                for name in sorted(names - done):
                    path = datagen.generate(name, self.data_dir(size), rows)
                    # Metadata computation is the paper's background task.
                    self.metastore.compute_and_store(path, sample_rows=2_000)
                    done.add(name)
                done_variants = self._variants.setdefault(size, set())
                for name in sorted(names):
                    for fmt in sorted(set(variants)):
                        if fmt == "csv" or (name, fmt) in done_variants:
                            continue
                        path = datagen.generate_variant(
                            name, self.data_dir(size), fmt
                        )
                        self._store_variant_metadata(path, fmt)
                        done_variants.add((name, fmt))

    def _store_variant_metadata(self, path: str, fmt: str) -> None:
        """Exact (unsampled) statistics for a source-format variant.

        JSONL files get per-byte-range :class:`PartitionStats` over the
        exact ranges the source will scan; hive dataset leaves get
        per-byte-range stats too (each leaf split into at least two
        ranges), so partition pruning can discard a *slice* of a leaf --
        unsampled min/max is pruning proof either way.  Columnar files
        carry their own per-chunk statistics in the footer, so the
        metastore records nothing for them."""
        if fmt == "jsonl":
            from repro.io import JsonlSource

            ranges = [p.byte_range for p in JsonlSource(path).partitions()]
            self.metastore.compute_and_store(
                path, sample_rows=None, fmt="jsonl", partition_ranges=ranges
            )
        elif fmt == "dataset":
            from repro.frame.io_csv import scan_partitions
            from repro.io import DatasetSource
            from repro.io.csv_source import DEFAULT_PARTITION_BYTES

            for leaf in DatasetSource(path).leaves():
                leaf_path = leaf["path"]
                n = max(2, os.path.getsize(leaf_path) // DEFAULT_PARTITION_BYTES)
                ranges = [tuple(r) for r in scan_partitions(leaf_path, int(n))]
                self.metastore.compute_and_store(
                    leaf_path, sample_rows=None,
                    partition_ranges=ranges or None,
                )
        # fmt == "columnar": the .lfc footer is the statistics store.

    def dataset_bytes(self, program: str, size: str) -> int:
        total = 0
        for name in PROGRAMS[program].datasets:
            path = os.path.join(self.data_dir(size), f"{name}.csv")
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def budget_for(self, program: str) -> Optional[int]:
        """Simulated RAM: paper ratio times the L-size data footprint.

        If L was not generated, extrapolate from the smallest generated
        size (sizes scale linearly in rows).
        """
        if not self.enforce_budget:
            return None
        for size in ("L", "M", "S"):
            byte_count = self.dataset_bytes(program, size)
            if byte_count:
                scale_up = SCALES["L"] / SCALES[size]
                return int(RAM_RATIO * byte_count * scale_up)
        raise RuntimeError(f"no data generated for {program}; call prepare()")

    # -- execution -------------------------------------------------------------

    def run(
        self,
        program: str,
        mode: str,
        size: str = "S",
        options: Optional[Dict[str, object]] = None,
        strategy: Optional[str] = None,
        source_format: Optional[str] = None,
    ) -> RunResult:
        """Execute one cell of the evaluation grid.

        Each run executes inside its own :class:`Session` (activated via
        the thread-local stack for the duration of the program), with
        ``options`` applied through ``option_context`` -- no session or
        flag state leaks between cells.  ``options`` takes dotted keys
        (``{"executor.cache": False}``); ``strategy`` is shorthand for
        ``{"executor.strategy": ...}``; ``source_format`` (``csv`` / ``jsonl`` / ``dataset``) prepares
        the matching dataset variants and sets
        ``workload.source_format`` so the program's ``pd.read_csv``
        calls build their scan leaf over that format (lafp modes only
        -- baseline modes read the plain CSV regardless).  Dataset and
        result paths, the memory budget, and the stdout capture travel
        on the cell's session (``workload.*`` / ``memory.budget``
        options, session-routed capture) rather than process env vars,
        the global manager, or a global redirect, so cells cannot race
        each other on any of them.
        """
        if mode not in _HEADERS:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        spec = PROGRAMS[program]
        variants = [source_format] if source_format not in (None, "csv") else []
        self.prepare([size], programs=[program], variants=variants)

        source = _HEADERS[mode] + spec.body_for(
            "dask" if mode == "dask" else "pandas"
        )
        result_dir = os.path.join(self.workdir, "results", program, mode, size)
        os.makedirs(result_dir, exist_ok=True)
        program_path = os.path.join(result_dir, f"{program}.py")
        with open(program_path, "w") as f:
            f.write(source)

        overrides: Dict[str, object] = dict(options or {})
        if strategy is not None:
            overrides["executor.strategy"] = strategy
        if source_format is not None:
            overrides.setdefault("workload.source_format", source_format)
        overrides.setdefault("workload.data_dir", self.data_dir(size))
        overrides.setdefault("workload.result_dir", result_dir)
        overrides.setdefault("memory.budget", self.budget_for(program))
        session = self._make_session(mode)
        self._reset_compat_state()

        captured = io.StringIO()
        ok, error = True, None
        requested_strategy = None
        start = time.perf_counter()
        try:
            # capture outermost: the session drains pending lazy prints
            # on exit, and that output must land in the capture.  The
            # option_context encloses the session for the same reason --
            # the exit-time flush must still see the cell's overrides.
            with _capture_session_stdout(session, captured), \
                    session.option_context(overrides), session:
                requested_strategy = str(session.get_option("executor.strategy"))
                runpy.run_path(program_path, run_name="__main__")
        except SystemExit:
            pass  # pd.analyze() replaced execution; normal completion
        except MemoryError as exc:
            ok, error = False, f"OOM: {exc}"
        except Exception as exc:  # noqa: BLE001 - report, don't crash the grid
            ok, error = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        peak = session.memory.peak
        exec_stats = session.last_execution_stats
        self._cleanup_engines(session)

        digest = None
        result_csv = os.path.join(result_dir, f"{program}.csv")
        if ok and os.path.exists(result_csv):
            digest = file_md5(result_csv)
        return RunResult(
            program=program,
            mode=mode,
            size=size,
            ok=ok,
            seconds=seconds,
            peak_bytes=peak,
            error=error,
            result_hash=digest,
            stdout=captured.getvalue(),
            # report what actually ran: capability fallbacks can downgrade
            # the requested strategy (threaded on a lazy engine -> serial).
            strategy=(exec_stats.effective_strategy if exec_stats
                      else requested_strategy),
            source_format=source_format,
            execution_stats=exec_stats.to_dict() if exec_stats else None,
        )

    def run_grid(
        self,
        programs: Optional[List[str]] = None,
        modes: Optional[List[str]] = None,
        sizes: Iterable[str] = ("S",),
        strategy: Optional[str] = None,
        source_format: Optional[str] = None,
    ) -> List[RunResult]:
        out = []
        for size in sizes:
            for program in programs or sorted(PROGRAMS):
                for mode in modes or MODES:
                    out.append(self.run(program, mode, size,
                                        strategy=strategy,
                                        source_format=source_format))
        return out

    def lint(self, program: str, size: str = "S") -> LintReport:
        """Statically analyze one program: build its plans, execute none.

        The program body runs under the lazy facade inside a
        :class:`~repro.analysis.plan.lint.LintSession` -- every forced
        computation (``save_result``, ``len``, lazy prints) records the
        plan instead of reading data -- then the whole session graph is
        analyzed once, session-scoped rules (dead subgraphs) included.
        Datasets are still generated so source schemas resolve.
        """
        from repro.analysis.plan.lint import LintSession
        from repro.workloads import resultio

        spec = PROGRAMS[program]
        self.prepare([size], programs=[program])
        source = _LINT_HEADER + spec.body_for("pandas")
        lint_dir = os.path.join(self.workdir, "lint", program)
        os.makedirs(lint_dir, exist_ok=True)
        program_path = os.path.join(lint_dir, f"{program}.py")
        with open(program_path, "w") as f:
            f.write(source)

        session = LintSession(backend="pandas")
        session.metastore = self.metastore
        overrides = {
            "workload.data_dir": self.data_dir(size),
            "workload.result_dir": lint_dir,
            "analysis.level": "off",  # finish() analyzes once, globally
        }
        self._reset_compat_state()

        # The body runs without pd.analyze(), so the rewrites the JIT
        # would apply are modelled here instead: save_result / plotlib
        # calls force (= record) their lazy arguments and skip the real
        # work, and printing a lazy object counts as consuming it (under
        # analyze() those prints become side-effecting lazy print nodes,
        # so they must not lint as dead subgraphs).
        import builtins
        import re

        from repro.workloads import plotlib

        def _record(obj) -> None:
            node = getattr(obj, "_node", None)
            if node is not None:
                session.computed_ids.add(node.id)
            elif isinstance(obj, str):
                for match in re.finditer("\x00LAFP:(\\d+)\x00", obj):
                    session.computed_ids.add(int(match.group(1)))

        def _lint_save_result(obj, name: str) -> str:
            compute = getattr(obj, "compute", None)
            if compute is not None:
                compute()
            return ""

        def _lint_plot(*args, **kwargs) -> None:
            for arg in args:
                _record(arg)

        real_print = builtins.print

        def _lint_print(*args, **kwargs):
            for arg in args:
                _record(arg)
            real_print(*args, **kwargs)

        original_save = resultio.save_result
        original_plot = (plotlib.plot, plotlib.bar, plotlib.hist)
        resultio.save_result = _lint_save_result
        plotlib.plot = plotlib.bar = plotlib.hist = _lint_plot
        builtins.print = _lint_print
        captured = io.StringIO()
        error: Optional[str] = None
        try:
            with _capture_session_stdout(session, captured), \
                    session.option_context(overrides), session:
                runpy.run_path(program_path, run_name="__main__")
        except Exception as exc:  # noqa: BLE001 - report, don't crash lint
            error = f"{type(exc).__name__}: {exc}"
        finally:
            resultio.save_result = original_save
            plotlib.plot, plotlib.bar, plotlib.hist = original_plot
            builtins.print = real_print
        diagnostics = session.finish()
        return LintReport(program=program, diagnostics=diagnostics,
                          error=error)

    # -- plumbing -----------------------------------------------------------------

    def _make_session(self, mode: str) -> Session:
        """A fresh, isolated session for one grid cell."""
        backend = _BACKEND_OF_MODE.get(mode, "pandas")
        session = Session(backend=backend)
        if mode in _BACKEND_OF_MODE:
            session.metastore = self.metastore
        return session

    def _reset_compat_state(self) -> None:
        from repro.workloads import dask_compat, plotlib

        plotlib.state.reset()
        dask_compat.reset()

    def _cleanup_engines(self, session: Session) -> None:
        from repro.workloads import dask_compat

        for engine in session._engines.values():
            store = getattr(engine.backend, "store", None)
            if store is not None:
                store.clear()
        dask_compat.reset()

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
