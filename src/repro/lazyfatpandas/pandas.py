"""The ``lazyfatpandas.pandas`` module: LaFP's drop-in pandas surface.

Importing this module as ``pd`` gives the paper's API:

- ``pd.read_csv`` and friends return :class:`~repro.core.LazyFrame`s that
  build the task graph instead of executing,
- ``pd.scan_csv`` (of which ``pd.read_csv`` is the pandas spelling) /
  ``pd.scan_jsonl`` / ``pd.scan_dataset`` / ``pd.scan_columnar`` /
  ``pd.from_pandas`` are the source-layer ingress (:mod:`repro.io`):
  LazyFrames rooted at the one ``scan`` leaf the optimizer folds
  projections and predicates *into*,
- ``pd.analyze()`` triggers JIT static analysis of the calling program
  (section 2.4),
- ``pd.flush()`` forces pending lazy prints (section 3.3).

Execution state lives in explicit :class:`~repro.core.session.Session`
objects resolved per thread; everything here binds to the *current*
session::

    with pd.Session(backend="pandas") as s:
        df = pd.read_csv("data.csv")     # bound to s
        df.collect()                     # runs on s's pandas engine

Configuration is pandas-style, per session and nestable::

    pd.options.optimizer.predicate_pushdown      # read
    pd.set_option("executor.cache", False)       # write
    with pd.option_context("optimizer.metadata", False):
        ...

Scripts with no explicit session run on a shared root session, so the
paper-verbatim two-line change still works.  The legacy backend selector
``pd.BACKEND_ENGINE = pd.BackendEngines.PANDAS`` is kept: assigning it
forwards to ``set_option("backend.engine", ...)`` on the current session
(the old pre-compute sync hooks are gone).
"""

from __future__ import annotations

import contextlib
import enum
import sys
import types
from typing import Optional, Sequence

from repro.core.config import (
    OptionError,
    canonical_key,
    describe_options,
    is_foreign_option_key,
    iter_option_pairs,
    options,
    tolerated_key,
)
from repro.core.lazyframe import LazyFrame, LazyObject, LazySeries
from repro.core.session import Session, current_session, reset_root_session
from repro.graph.node import Node
from repro.io.api import (
    from_pandas,
    scan_columnar,
    scan_csv,
    scan_dataset,
    scan_jsonl,
    scan_source,
    sibling_variant,
)

__all__ = [
    "BACKEND_ENGINE",
    "BackendEngines",
    "DataFrame",
    "LazyFrame",
    "LazySeries",
    "OptionError",
    "Session",
    "analyze",
    "concat",
    "current_session",
    "describe_options",
    "flush",
    "from_pandas",
    "get_option",
    "merge",
    "option_context",
    "options",
    "read_csv",
    "reset",
    "scan_columnar",
    "scan_csv",
    "scan_dataset",
    "scan_jsonl",
    "scan_source",
    "set_backend",
    "set_option",
    "to_datetime",
]


class BackendEngines(enum.Enum):
    """Selectable execution backends (section 2.6)."""

    PANDAS = "pandas"
    DASK = "dask"
    MODIN = "modin"


#: Legacy selector: assigning ``pd.BACKEND_ENGINE = pd.BackendEngines.X``
#: sets ``backend.engine`` on the current session (see module docstring).
BACKEND_ENGINE = BackendEngines.DASK


def set_backend(engine) -> None:
    """Select the current session's execution backend by enum or name.

    Also records the choice in ``BACKEND_ENGINE``, so the legacy
    selector and helpers that read it (e.g. the ``reset()`` default)
    always reflect the last explicit choice, whichever API spelling
    made it.
    """
    global BACKEND_ENGINE
    name = engine.value if isinstance(engine, BackendEngines) else str(engine)
    current_session().set_option("backend.engine", name)
    try:
        BACKEND_ENGINE = BackendEngines(name)
    except ValueError:
        BACKEND_ENGINE = name  # unknown: the first collect names the engines


class _BackendSyncModule(types.ModuleType):
    """Module type forwarding ``BACKEND_ENGINE`` assignment into the
    current session, replacing the retired module-level sync hooks."""

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name == "BACKEND_ENGINE":
            set_backend(value)


# ---------------------------------------------------------------------------
# Options (pandas-style, per current session).
# ---------------------------------------------------------------------------


def _canonical_pairs(args: tuple):
    """Resolve (key, value) pairs to canonical LaFP keys, dropping
    pandas-compat keys (``display.*``-style namespaces and bare
    shorthand keys like ``"max_columns"``) with a warning so a dotless
    typo is at least visible.  Unknown dotted keys
    outside the pandas namespaces raise -- a typo'd LaFP key must
    error, never silently no-op.  One policy for ``set_option``,
    ``option_context`` and the ``options`` attribute form
    (:func:`~repro.core.config.tolerated_key`).
    """
    pairs = []
    for k, v in iter_option_pairs(args):
        key = tolerated_key(str(k), stacklevel=3)
        if key is not None:
            pairs.append((key, v))
    return pairs


def set_option(*args) -> None:
    """Set options on the current session.

    Accepts the same shapes as :func:`option_context`: key/value pairs
    or a single mapping.  Dotted LaFP keys (``optimizer.*``,
    ``backend.engine``, ``executor.cache``) are applied -- with their
    validation errors surfaced.  pandas option keys are accepted and
    ignored so unmodified pandas scripts keep running.
    """
    session = current_session()
    for canon, v in _canonical_pairs(args):
        session.set_option(canon, v)


def get_option(key):
    """Read an option from the current session.

    pandas-compat keys (tolerated as no-ops by :func:`set_option`)
    read as ``None``.
    """
    key = str(key)
    try:
        canon = canonical_key(key)
    except OptionError:
        if is_foreign_option_key(key):
            return None
        raise
    return current_session().get_option(canon)


def option_context(*args):
    """Nestable temporary option overrides on the current session::

        with pd.option_context("optimizer.predicate_pushdown", False):
            df.collect()

    pandas-compat keys are dropped (no-op), matching :func:`set_option`.
    Keys are validated immediately; the *target session* is resolved at
    ``__enter__``.  When composing with a session in one statement, the
    session must come first -- ``with pd.Session(...),
    pd.option_context(...):`` -- so the overrides land on the new
    session; the reverse order targets whatever session was current
    before the statement.
    """
    return _option_context_cm(dict(_canonical_pairs(args)))


@contextlib.contextmanager
def _option_context_cm(pairs):
    with current_session().option_context(pairs):
        yield


# ---------------------------------------------------------------------------
# Frame constructors.
# ---------------------------------------------------------------------------


def read_csv(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype=None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    mutated_cols: Optional[Sequence[str]] = None,
) -> LazyFrame:
    """Lazy CSV read: the pandas spelling of :func:`scan_csv`.

    ``mutated_cols`` carries the static analyzer's kill-set result
    (section 3.6): the columns the program assigns (read-only = header
    minus mutated).  The runtime optimizer intersects the read-only
    columns with metastore cardinality candidates to choose
    ``category`` dtypes safely.

    The session's ``workload.source_format`` option (the runner's
    ``--source-format`` axis) picks the leaf's format: the program text
    stays pandas-verbatim while the bytes come from the JSONL, hive or
    columnar sibling of ``path`` (see
    :func:`repro.io.api.sibling_variant`).
    """
    fmt = current_session().get_option("workload.source_format")
    variant = sibling_variant(path, fmt, dtype=dtype, nrows=nrows)
    if variant is None:
        fmt, variant = "csv", path
    return scan_source(
        fmt, variant, usecols=usecols, index_col=index_col,
        dtype=dict(dtype) if dtype else None,
        parse_dates=list(parse_dates) if parse_dates else None,
        nrows=nrows,
        mutated_cols=None if mutated_cols is None else list(mutated_cols),
    )


def DataFrame(data) -> LazyFrame:
    """Lazy in-memory frame construction."""
    session = current_session()
    node = Node("from_data", args={"data": data}, label="DataFrame")
    columns = list(data.keys()) if isinstance(data, dict) else None
    return LazyFrame(session.register(node), session, columns=columns)


def merge(left: LazyFrame, right: LazyFrame, **kwargs) -> LazyFrame:
    """Module-level merge, mirroring ``pandas.merge``."""
    return left.merge(right, **kwargs)


def concat(objs: Sequence[LazyObject], ignore_index: bool = True):
    """Lazy row-wise concatenation.

    The result binds to the first input's session (like every derived
    lazy object), not to whatever session is current at call time.
    """
    session = objs[0].session
    nodes = [o.node for o in objs]
    node = Node("concat", inputs=nodes, label="concat")
    session.register(node)
    if isinstance(objs[0], LazySeries):
        return LazySeries(node, session, name=objs[0].name)
    columns = objs[0].columns if isinstance(objs[0], LazyFrame) else None
    return LazyFrame(node, session, columns=columns)


def to_datetime(series: LazySeries) -> LazySeries:
    """Lazy string-to-datetime conversion (bound to the input's session)."""
    session = series.session
    node = Node("to_datetime", inputs=[series.node], label="to_datetime")
    return LazySeries(session.register(node), session, name=series.name)


# ---------------------------------------------------------------------------
# Control-flow entry points (Figure 2's two lines).
# ---------------------------------------------------------------------------


def analyze(run: bool = True) -> Optional[str]:
    """JIT static analysis of the calling program (section 2.4, Figure 5).

    Finds the caller's source via reflection, rewrites it (column
    selection, lazy print, forced computation, metadata hints), executes
    the optimized program, and stops the original one.  Inside the
    optimized program (or when the source cannot be found, e.g. in a
    REPL) this is a no-op.

    With ``run=False`` the optimized source is returned instead of
    executed -- used by tests and by ``EXPERIMENTS.md`` tooling.
    """
    from repro.analysis.jit import jit_analyze

    return jit_analyze(depth=2, run=run)


def flush() -> None:
    """Execute pending lazy prints (inserted by the rewriter, Figure 8)."""
    current_session().flush()


def reset(backend: Optional[str] = None) -> None:
    """Replace the root LaFP session (benchmark harness hook).

    Without an argument the fresh root uses the last explicit engine
    choice (``BACKEND_ENGINE`` assignment or ``set_backend()`` keep the
    module global current, wherever they were made); a choice made via
    ``set_option("backend.engine", ...)`` on an explicit session stays
    scoped to that session.  Prefer scoped ``with
    pd.Session(backend=...)`` blocks; this only affects code running
    outside any explicit session.
    """
    if backend is None:
        engine = BACKEND_ENGINE
        backend = engine.value if isinstance(engine, BackendEngines) else str(engine)
    reset_root_session(backend)


# ``pd.BACKEND_ENGINE = ...`` reaches the current session; the
# ``lazyfatpandas.pandas`` alias is this very module.
sys.modules[__name__].__class__ = _BackendSyncModule
