"""Per-session configuration: a pandas-style dotted-key option layer.

Every :class:`~repro.core.session.Session` owns a :class:`SessionOptions`
instance; nothing here is process-global except the *registry of known
option keys* (defaults + docs + validators), which is immutable at
runtime.  The public surface mirrors pandas:

- ``lfp.options.optimizer.predicate_pushdown`` -- attribute-style access
  to the *current* session's options,
- ``lfp.set_option("executor.cache", False)`` / ``lfp.get_option(key)``,
- ``lfp.option_context("optimizer.metadata", False)`` -- a nestable
  context manager restoring prior values on exit.

Every registered key, with its default and doc line, is listed by
:func:`describe_options` (``lfp.describe_options()``): the registrations
below are the one table, and that listing is read off them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple


class OptionError(KeyError):
    """Unknown option key or invalid option value."""


#: pandas option namespaces tolerated as no-ops so unmodified pandas
#: scripts (``pd.set_option("display.max_rows", ...)``,
#: ``pd.options.display.max_rows = ...``) run under the facade.  Any
#: other unknown *dotted* root is an error -- a typo'd LaFP key must
#: never silently no-op.
FOREIGN_OPTION_ROOTS = (
    "display", "mode", "compute", "io", "plotting", "styler", "future",
)


@dataclasses.dataclass(frozen=True)
class OptionSpec:
    """One registered option: its default, doc line and validator."""

    key: str
    default: object
    doc: str = ""
    validator: Optional[Callable[[object], None]] = None
    #: True when the option changes *what a plan computes* (not just
    #: how fast): semantic options join the result-cache key, so
    #: flipping one can never serve a stale cached result.
    semantic: bool = False


_REGISTRY: Dict[str, OptionSpec] = {}


def register_option(
    key: str,
    default: object,
    doc: str = "",
    validator: Optional[Callable[[object], None]] = None,
    semantic: bool = False,
) -> None:
    """Add a key to the option registry (done once, at import time)."""
    _REGISTRY[key] = OptionSpec(key=key, default=default, doc=doc,
                                validator=validator, semantic=semantic)


def semantic_option_keys() -> Tuple[str, ...]:
    """Registered keys flagged ``semantic`` (sorted, stable)."""
    return tuple(sorted(k for k, s in _REGISTRY.items() if s.semantic))


def semantic_signature(options: "SessionOptions") -> Tuple[Tuple[str, str], ...]:
    """The semantics-relevant slice of a session's options, in the
    canonical form the result-cache key embeds: sorted
    ``(key, repr(value))`` pairs over every ``semantic`` option."""
    return tuple(
        (key, repr(options.get(key))) for key in semantic_option_keys()
    )


def canonical_key(key: str) -> str:
    """``key`` if it is a registered option, else :class:`OptionError`."""
    if key in _REGISTRY:
        return key
    raise OptionError(
        f"unknown option {key!r}; known options: {sorted(_REGISTRY)}"
    )


def is_foreign_option_key(key: str) -> bool:
    """Is ``key`` a pandas option the facade tolerates as a no-op?

    True for keys in a pandas namespace (``display.*`` etc.) and for
    bare dotless keys (pandas accepts shorthand like ``"max_columns"``)
    that are not LaFP keys.  Unknown *dotted* keys
    outside the pandas namespaces are never foreign -- a typo'd LaFP
    key must error, not silently no-op.
    """
    if key in _REGISTRY:
        return False
    root = key.split(".", 1)[0]
    return root in FOREIGN_OPTION_ROOTS or "." not in key


def describe_options() -> str:
    """Human-readable listing of every option, default, and doc line."""
    lines = []
    for key in sorted(_REGISTRY):
        spec = _REGISTRY[key]
        lines.append(f"{key} (default: {spec.default!r})")
        if spec.doc:
            lines.append(f"    {spec.doc}")
    return "\n".join(lines)


def _validate_bool(value: object) -> None:
    if not isinstance(value, bool):
        raise OptionError(f"expected a bool, got {value!r}")


def _validate_str(value: object) -> None:
    if not isinstance(value, str) or not value:
        raise OptionError(f"expected a non-empty string, got {value!r}")


register_option(
    "backend.engine", "dask",
    doc="Execution engine resolved through the session's EngineRegistry "
        "(section 2.6; 'pandas', 'dask', or 'modin' by default).",
    validator=_validate_str,
)
register_option(
    "optimizer.predicate_pushdown", True,
    doc="Move filters toward sources past safe points (section 3.2).",
    validator=_validate_bool,
)
register_option(
    "optimizer.common_subexpression", True,
    doc="Merge structurally identical nodes before execution.",
    validator=_validate_bool,
)
register_option(
    "optimizer.projection_pushdown", True,
    doc="Narrow scan leaves, and the inputs of row copies and merges, "
        "to the columns the graph actually uses; a sort + head becomes "
        "a top-n.",
    validator=_validate_bool,
)
register_option(
    "optimizer.metadata", True,
    doc="Metastore-driven dtype hints and category encoding (section 3.6).",
    validator=_validate_bool,
)
register_option(
    "optimizer.partition_pruning", True,
    doc="Drop scan partitions whose statistics (hive key values, exact "
        "per-partition min/max from the metastore) prove the pushed "
        "predicate can never match.",
    validator=_validate_bool,
)
def _validate_positive_int(value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise OptionError(f"expected a positive int, got {value!r}")


def _validate_optional_positive_int(value: object) -> None:
    if value is None:
        return
    _validate_positive_int(value)


def _validate_optional_bytes(value: object) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise OptionError(
            f"expected None or a non-negative byte count, got {value!r}"
        )


def _validate_optional_str(value: object) -> None:
    if value is not None and (not isinstance(value, str) or not value):
        raise OptionError(f"expected None or a non-empty string, got {value!r}")


register_option(
    "executor.cache", True,
    doc="live_df-driven persistence of shared subexpressions (section 3.5).",
    validator=_validate_bool,
)
register_option(
    "executor.strategy", os.environ.get("LAFP_EXECUTOR_STRATEGY", "serial"),
    doc="Scheduler strategy resolved through the session's "
        "ExecutorRegistry ('serial', 'threaded', 'fused', 'process', or "
        "'async'); the LAFP_EXECUTOR_STRATEGY env var sets the process "
        "default (the CI parallel-path leg uses it).",
    validator=_validate_str,
)
def _validate_max_workers(value: object) -> None:
    if value == "auto":
        return
    _validate_positive_int(value)


register_option(
    "executor.max_workers", 4,
    doc="Worker-pool size of the threaded, process, and async scheduler "
        "strategies ('auto': the CPU count, capped at 8).  It bounds "
        "unbudgeted runs only: under memory.budget every strategy runs "
        "one task at a time, in the static order.",
    validator=_validate_max_workers,
)
register_option(
    "executor.static_order", True,
    doc="Run the memory-aware static ordering pass (a Sethi-Ullman-style "
        "DFS over per-node byte estimates) before executing: the serial "
        "and fused strategies follow it as their execution order, the "
        "threaded/process/async heaps use it as the tie-break ahead of "
        "the node id.  Purely an ordering choice among independent "
        "nodes; results are unaffected.",
    validator=_validate_bool,
)


def _validate_non_negative_int(value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise OptionError(f"expected a non-negative int, got {value!r}")


def _validate_start_method(value: object) -> None:
    if value is not None and value not in ("fork", "spawn", "forkserver"):
        raise OptionError(
            f"expected None, 'fork', 'spawn' or 'forkserver', got {value!r}"
        )


register_option(
    "executor.process_retries", 1,
    doc="How many times the process strategy re-runs a shipped task "
        "whose worker died (BrokenProcessPool) before raising "
        "ExecutionError.  Shipped tasks are pure, so re-running is "
        "always safe.",
    validator=_validate_non_negative_int,
)
register_option(
    "executor.process_start_method",
    os.environ.get("LAFP_PROCESS_START_METHOD") or None,
    doc="multiprocessing start method of the process strategy's worker "
        "pool (None = 'fork' where available, else the platform "
        "default).  'spawn'/'forkserver' workers import the package "
        "fresh; 'fork' inherits the parent and is much faster to start. "
        "The LAFP_PROCESS_START_METHOD env var sets the process default "
        "(the CI spawn leg uses it).",
    validator=_validate_start_method,
)
register_option(
    "memory.budget", None,
    doc="Per-session simulated memory budget in bytes (None = unbudgeted). "
        "Each session's allocations count only against its own budget.",
    validator=_validate_optional_bytes,
)
register_option(
    "memory.spill_dir", None,
    doc="Directory shuffle buckets spill to when headroom runs out "
        "(None = the system temp dir); each store gets its own "
        "mkdtemp underneath, removed on close.",
    validator=_validate_optional_str,
)
register_option(
    "optimizer.shuffle", True,
    doc="Give the partition cut a size limit: optimizer."
        "shuffle_threshold_bytes if set, else the memory.budget "
        "headroom.  On pandas and Modin the scans over it that feed a "
        "merge / groupby-agg are cut per partition and the wide op "
        "lowered (shuffle_write / shuffle_read / partial_agg / "
        "combine_agg); the Dask engine cuts every plan and sizes its "
        "broadcasts and buckets by it.",
    validator=_validate_bool,
)
register_option(
    "optimizer.shuffle_partitions", None,
    doc="Bucket count P for lowered shuffles (None = one per piece, "
        "and under a size limit at least enough that one bucket is "
        "roughly a quarter of it by the scan byte estimates, clamped "
        "to [2, 32]).",
    validator=_validate_optional_positive_int,
)
register_option(
    "optimizer.shuffle_threshold_bytes", None,
    doc="Estimated-bytes limit above which merge / groupby inputs are "
        "shuffled and below which a merge side may be broadcast "
        "(None = use the current memory.budget headroom).",
    validator=_validate_optional_bytes,
)
register_option(
    "workload.data_dir", None,
    doc="Directory benchmark programs read datasets from (replaces the "
        "LAFP_DATA_DIR env var so parallel grid cells cannot race).",
    validator=_validate_optional_str,
)
register_option(
    "workload.result_dir", None,
    doc="Directory benchmark programs write results to (replaces the "
        "LAFP_RESULT_DIR env var so parallel grid cells cannot race).",
    validator=_validate_optional_str,
)


def _validate_source_format(value: object) -> None:
    if value is None:
        return
    if value not in ("csv", "jsonl", "dataset", "columnar"):
        raise OptionError(
            f"expected None, 'csv', 'jsonl', 'dataset' or 'columnar', "
            f"got {value!r}"
        )


register_option(
    "workload.source_format", None,
    doc="Physical source format benchmark programs read (the runner's "
        "--source-format axis): the format of the scan leaf "
        "pd.read_csv builds.  None/'csv' scans the CSV itself; "
        "'jsonl'/'dataset'/'columnar' scans the sibling dataset "
        "variant when it exists.",
    validator=_validate_source_format,
    # flipping the format changes which physical files a program's
    # read_csv resolves to, so a cached result keyed under one format
    # must never serve a session running under another.
    semantic=True,
)


def _validate_analysis_level(value: object) -> None:
    if value not in ("off", "warn", "strict"):
        raise OptionError(
            f"expected 'off', 'warn' or 'strict', got {value!r}"
        )


register_option(
    "analysis.level", "warn",
    doc="Static plan analysis before execution: 'off' skips it, 'warn' "
        "emits a PlanDiagnosticsWarning for error-severity diagnostics, "
        "'strict' raises PlanValidationError before any partition is "
        "read.",
    validator=_validate_analysis_level,
)


def _validate_non_negative_float(value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value < 0:
        raise OptionError(
            f"expected a non-negative number, got {value!r}"
        )


register_option(
    "io.retries", 2,
    doc="How many times a transient range-read failure (the object "
        "store's dropped-connection analogue) is retried with "
        "exponential backoff before surfacing as ExecutionError.",
    validator=_validate_non_negative_int,
)
register_option(
    "io.retry_backoff", 0.005,
    doc="Base backoff in seconds between range-read retries (doubles "
        "per attempt).",
    validator=_validate_non_negative_float,
)
register_option(
    "io.prefetch", True,
    doc="Let parallel scheduler strategies prefetch the byte ranges a "
        "plan's scans will read (sources that can enumerate them, i.e. "
        "columnar) so remote latency overlaps compute.  Purely a "
        "latency optimization; reads fall back to direct fetches on "
        "any miss.",
    validator=_validate_bool,
)
register_option(
    "io.prefetch_budget", 32 * 1024 * 1024,
    doc="Byte ceiling of prefetched-but-unconsumed ranges (None = "
        "unbounded).  Completed entries beyond it are evicted "
        "oldest-first; every resident entry also charges the session's "
        "memory budget through a TrackedBuffer.",
    validator=_validate_optional_bytes,
)
register_option(
    "optimizer.reuse", False,
    doc="Serve subplans whose fingerprint hits the process-global "
        "result cache as pre-materialized from_cached leaves, and "
        "insert this run's cache-worthy results for later sessions. "
        "Off by default: the cache is shared process state, so reuse "
        "is an explicit opt-in per session.",
    validator=_validate_bool,
)
register_option(
    "cache.budget", 64 * 1024 * 1024,
    doc="In-memory byte budget of the process-global result cache "
        "(None = unbounded).  Admission demotes least-recently-used "
        "entries to the disk tier first, so the cache's resident bytes "
        "never overshoot this ceiling.",
    validator=_validate_optional_bytes,
)
register_option(
    "cache.spill_budget", 256 * 1024 * 1024,
    doc="Disk-tier byte budget of the result cache (None = unbounded). "
        "Beyond it, least-recently-used demoted entries are evicted "
        "and their files deleted immediately.",
    validator=_validate_optional_bytes,
)
register_option(
    "cache.min_cost", 0.01,
    doc="Cache-worthiness floor in byte-seconds: a result is inserted "
        "only when its actual wall time x serialized size meets this "
        "(a 64 B scalar computed in microseconds never qualifies; any "
        "real scan/join/aggregate does).",
    validator=_validate_non_negative_float,
)


def iter_option_pairs(args: tuple) -> Iterator[Tuple[str, object]]:
    """Yield (key, value) pairs from pandas-style positional pairs or a
    single mapping argument.

    Shared by ``SessionOptions.context`` and the facade's ``set_option``
    / ``option_context`` so every entry point accepts the same shapes.
    """
    if len(args) == 1 and isinstance(args[0], Mapping):
        yield from args[0].items()
    elif args:
        if len(args) % 2 != 0:
            raise OptionError(
                "option_context takes key/value pairs, e.g. "
                "option_context('executor.cache', False)"
            )
        yield from zip(args[::2], args[1::2])


class SessionOptions:
    """The option values of one session (unset keys fall to defaults)."""

    __slots__ = ("_values",)

    def __init__(self, overrides: Optional[Mapping[str, object]] = None):
        self._values: Dict[str, object] = {}
        for key, value in (overrides or {}).items():
            self.set(key, value)

    def get(self, key: str) -> object:
        key = canonical_key(key)
        if key in self._values:
            return self._values[key]
        return _REGISTRY[key].default

    def is_set(self, key: str) -> bool:
        """True when ``key`` was explicitly set (not falling to default)."""
        return canonical_key(key) in self._values

    def set(self, key: str, value: object) -> None:
        key = canonical_key(key)
        spec = _REGISTRY[key]
        if spec.validator is not None:
            spec.validator(value)
        self._values[key] = value

    def to_dict(self) -> Dict[str, object]:
        """Every registered key with its effective value."""
        return {key: self.get(key) for key in sorted(_REGISTRY)}

    @contextlib.contextmanager
    def context(self, *args):
        """Temporarily override options; restores prior state on exit.

        Accepts pandas-style pairs (``context("a.b", 1, "c.d", 2)``) or
        a single mapping.  Nestable.
        """
        saved = []
        try:
            for key, value in iter_option_pairs(args):
                canon = canonical_key(key)
                saved.append((canon, canon in self._values,
                              self._values.get(canon)))
                self.set(canon, value)
            yield self
        finally:
            for canon, was_set, old in reversed(saved):
                if was_set:
                    self._values[canon] = old
                else:
                    self._values.pop(canon, None)

    def __repr__(self) -> str:
        return f"SessionOptions({self.to_dict()!r})"


def _current_options() -> SessionOptions:
    from repro.core.session import current_session

    return current_session().options


class _ForeignOptionsNamespace:
    """Sink for pandas-compat namespaces: assignments are no-ops
    (``options.display.max_rows = 500``) and reads return ``None``,
    matching what the facade's ``get_option`` reports for foreign keys."""

    __slots__ = ()

    def __getattr__(self, name: str) -> None:
        if name.startswith("_"):
            raise AttributeError(name)
        return None

    def __setattr__(self, name: str, value) -> None:
        pass

    def __repr__(self) -> str:
        return "<foreign pandas options: ignored>"


class OptionsNamespace:
    """Attribute-style proxy over the *current* session's options.

    ``lfp.options.optimizer.predicate_pushdown`` reads; assignment
    writes.  The proxy is stateless: it always resolves the session at
    access time, so it follows ``with Session(...):`` blocks.
    """

    __slots__ = ("_prefix",)

    def __init__(self, prefix: str = ""):
        object.__setattr__(self, "_prefix", prefix)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        full = self._prefix + name
        if full in _REGISTRY:
            return _current_options().get(full)
        nested = full + "."
        if any(key.startswith(nested) for key in _REGISTRY):
            return OptionsNamespace(nested)
        if not self._prefix and name in FOREIGN_OPTION_ROOTS:
            return _ForeignOptionsNamespace()
        raise AttributeError(
            f"no option or option group {full!r}; "
            f"known options: {sorted(_REGISTRY)}"
        )

    def __setattr__(self, name: str, value) -> None:
        _current_options().set(self._prefix + name, value)

    def __dir__(self):
        names = set()
        for key in _REGISTRY:
            if key.startswith(self._prefix):
                names.add(key[len(self._prefix):].split(".", 1)[0])
        return sorted(names)

    def __repr__(self) -> str:
        values = {key: _current_options().get(key)
                  for key in sorted(_REGISTRY)
                  if key.startswith(self._prefix)}
        return f"options[{self._prefix or '*'}] -> {values!r}"


#: The module-level proxy re-exported as ``lfp.options``.
options = OptionsNamespace()
