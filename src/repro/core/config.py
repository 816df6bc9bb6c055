"""Per-session configuration: a pandas-style dotted-key option layer.

Every :class:`~repro.core.session.Session` owns a :class:`SessionOptions`
instance; nothing here is process-global except :data:`OPTION_TABLE`,
the one immutable table of known option keys (default, check, doc line
and whether the option changes what a plan computes).  The public
surface mirrors pandas:

- ``lfp.options.optimizer.predicate_pushdown`` -- attribute-style access
  to the *current* session's options,
- ``lfp.set_option("executor.cache", False)`` / ``lfp.get_option(key)``,
- ``lfp.option_context("optimizer.metadata", False)`` -- a nestable
  context manager restoring prior values on exit.

Every key, with its default and doc line, is listed by
:func:`describe_options` (``lfp.describe_options()``), read off the
table.  A setting that only one value is ever used for is a constant of
the module that reads it, not an option: the range-read retry policy
(``io/fs.py``), the result cache's byte budgets
(``cache/result_cache.py``) and the worker start method
(``graph/scheduler/process.py``, from ``LAFP_PROCESS_START_METHOD``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import warnings
from types import MappingProxyType
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

Check = Callable[[object], None]


@dataclasses.dataclass(frozen=True)
class OptionSpec:
    """One row of the option table."""

    key: str
    default: object
    check: Check
    doc: str
    #: True when the option changes *what a plan computes* (not just
    #: how fast): semantic options join the result-cache key, so
    #: flipping one can never serve a stale cached result.
    semantic: bool = False


def _check(expected: str, ok: Callable[[object], bool],
           optional: bool = False) -> Check:
    """A check raising :class:`OptionError` unless ``ok(value)`` (or,
    when ``optional``, the value is None)."""
    if optional:
        expected = "None or " + expected

    def check(value: object) -> None:
        if not ((optional and value is None) or ok(value)):
            raise OptionError(f"expected {expected}, got {value!r}")

    return check


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value: object) -> bool:
    return isinstance(value, str) and value != ""


def _is_positive_int(value: object) -> bool:
    return _is_int(value) and value >= 1


def _one_of(*choices: object) -> Check:
    return _check(" or ".join(map(repr, choices)),
                  lambda value: value in choices)


_BOOL = _check("a bool", lambda value: isinstance(value, bool))
_STR = _check("a non-empty string", _is_str)
_OPTIONAL_STR = _check("a non-empty string", _is_str, optional=True)
_POSITIVE_INT = _check("a positive int", _is_positive_int)
_OPTIONAL_POSITIVE_INT = _check("a positive int", _is_positive_int,
                                optional=True)
_OPTIONAL_BYTES = _check("a non-negative byte count",
                         lambda value: _is_int(value) and value >= 0,
                         optional=True)
_NON_NEGATIVE = _check(
    "a non-negative number",
    lambda value: (_is_int(value) or isinstance(value, float))
    and value >= 0)


#: Every option, once: ``key -> OptionSpec``.  Immutable at runtime.
OPTION_TABLE: Mapping[str, OptionSpec] = MappingProxyType({
    spec.key: spec for spec in (
        OptionSpec(
            "backend.engine", "dask", _STR,
            "Execution engine resolved through the session's EngineRegistry "
            "(section 2.6; 'pandas', 'dask', or 'modin' by default)."),
        OptionSpec(
            "optimizer.predicate_pushdown", True, _BOOL,
            "Move filters toward sources past safe points (section 3.2)."),
        OptionSpec(
            "optimizer.common_subexpression", True, _BOOL,
            "Merge structurally identical nodes before execution."),
        OptionSpec(
            "optimizer.projection_pushdown", True, _BOOL,
            "Narrow scan leaves, and the inputs of row copies and merges, "
            "to the columns the graph actually uses; a sort + head becomes "
            "a top-n."),
        OptionSpec(
            "optimizer.metadata", True, _BOOL,
            "Metastore-driven dtype hints and category encoding (section "
            "3.6)."),
        OptionSpec(
            "optimizer.partition_pruning", True, _BOOL,
            "Drop scan partitions whose statistics (hive key values, exact "
            "per-partition min/max from the metastore) prove the pushed "
            "predicate can never match."),
        OptionSpec(
            "optimizer.reuse", False, _BOOL,
            "Serve subplans whose fingerprint hits the process-global "
            "result cache as pre-materialized from_cached leaves, and "
            "insert this run's cache-worthy results for later sessions. "
            "Off by default: the cache is shared process state, so reuse "
            "is an explicit opt-in per session."),
        OptionSpec(
            "optimizer.shuffle", True, _BOOL,
            "Give the partition cut a size limit: optimizer."
            "shuffle_threshold_bytes if set, else the memory.budget "
            "headroom.  On pandas and Modin the scans over it that feed a "
            "merge / groupby-agg are cut per partition and the wide op "
            "lowered (shuffle_write / shuffle_read / partial_agg / "
            "combine_agg); the Dask engine cuts every plan and sizes its "
            "broadcasts and buckets by it."),
        OptionSpec(
            "optimizer.shuffle_partitions", None, _OPTIONAL_POSITIVE_INT,
            "Bucket count P for lowered shuffles (None = one per piece, "
            "and under a size limit at least enough that one bucket is "
            "roughly a quarter of it by the scan byte estimates, clamped "
            "to [2, 32])."),
        OptionSpec(
            "optimizer.shuffle_threshold_bytes", None, _OPTIONAL_BYTES,
            "Estimated-bytes limit above which merge / groupby inputs are "
            "shuffled and below which a merge side may be broadcast "
            "(None = use the current memory.budget headroom)."),
        OptionSpec(
            "executor.cache", True, _BOOL,
            "live_df-driven persistence of shared subexpressions (section "
            "3.5)."),
        OptionSpec(
            "executor.strategy",
            os.environ.get("LAFP_EXECUTOR_STRATEGY", "serial"), _STR,
            "Scheduler strategy of DEFAULT_EXECUTORS ('serial', "
            "'threaded', 'fused', or 'process'); the LAFP_EXECUTOR_STRATEGY "
            "env var sets the process default (the CI strategy legs use "
            "it)."),
        OptionSpec(
            "executor.max_workers", 4, _POSITIVE_INT,
            "Worker-pool size of the threaded and process scheduler "
            "strategies.  It bounds unbudgeted runs only: under "
            "memory.budget every strategy runs one task at a time, in the "
            "static order."),
        OptionSpec(
            "executor.static_order", True, _BOOL,
            "Run the memory-aware static ordering pass (a Sethi-Ullman-style "
            "DFS over per-node byte estimates) before executing: the serial "
            "and fused strategies follow it as their execution order, the "
            "threaded/process heaps use it as the tie-break ahead of "
            "the node id.  Purely an ordering choice among independent "
            "nodes; results are unaffected."),
        OptionSpec(
            "memory.budget", None, _OPTIONAL_BYTES,
            "Per-session simulated memory budget in bytes (None = "
            "unbudgeted).  Each session's allocations count only against "
            "its own budget."),
        OptionSpec(
            "memory.spill_dir", None, _OPTIONAL_STR,
            "Directory shuffle buckets spill to when headroom runs out "
            "(None = the system temp dir); each store gets its own "
            "mkdtemp underneath, removed on close."),
        OptionSpec(
            "io.prefetch", True, _BOOL,
            "Let parallel scheduler strategies prefetch the byte ranges a "
            "plan's scans will read (sources that can enumerate them, i.e. "
            "columnar) so remote latency overlaps compute.  Purely a "
            "latency optimization; reads fall back to direct fetches on "
            "any miss."),
        OptionSpec(
            "cache.min_cost", 0.01, _NON_NEGATIVE,
            "Cache-worthiness floor in byte-seconds: a result is inserted "
            "only when its actual wall time x serialized size meets this "
            "(a 64 B scalar computed in microseconds never qualifies; any "
            "real scan/join/aggregate does)."),
        OptionSpec(
            "workload.data_dir", None, _OPTIONAL_STR,
            "Directory benchmark programs read datasets from (replaces the "
            "LAFP_DATA_DIR env var so parallel grid cells cannot race)."),
        OptionSpec(
            "workload.result_dir", None, _OPTIONAL_STR,
            "Directory benchmark programs write results to (replaces the "
            "LAFP_RESULT_DIR env var so parallel grid cells cannot race)."),
        OptionSpec(
            "workload.source_format", None,
            _one_of(None, "csv", "jsonl", "dataset", "columnar"),
            "Physical source format benchmark programs read (the runner's "
            "--source-format axis): the format of the scan leaf "
            "pd.read_csv builds.  None/'csv' scans the CSV itself; "
            "'jsonl'/'dataset'/'columnar' scans the sibling dataset "
            "variant when it exists.",
            # flipping the format changes which physical files a program's
            # read_csv resolves to, so a cached result keyed under one
            # format must never serve a session running under another.
            semantic=True),
        OptionSpec(
            "analysis.level", "warn", _one_of("off", "warn", "strict"),
            "Static plan analysis before execution: 'off' skips it, 'warn' "
            "emits a PlanDiagnosticsWarning for error-severity diagnostics, "
            "'strict' raises PlanValidationError before any partition is "
            "read."),
    )
})

#: the ``semantic`` keys, sorted: the result-cache key embeds them.
SEMANTIC_KEYS = tuple(sorted(
    key for key, spec in OPTION_TABLE.items() if spec.semantic))


def semantic_signature(options: "SessionOptions") -> Tuple[Tuple[str, str], ...]:
    """The semantics-relevant slice of a session's options, in the
    canonical form the result-cache key embeds: sorted
    ``(key, repr(value))`` pairs over every ``semantic`` option."""
    return tuple((key, repr(options.get(key))) for key in SEMANTIC_KEYS)


def canonical_key(key: str) -> str:
    """``key`` if it is a table row, else :class:`OptionError`."""
    if key in OPTION_TABLE:
        return key
    raise OptionError(
        f"unknown option {key!r}; known options: {sorted(OPTION_TABLE)}"
    )


def is_foreign_option_key(key: str) -> bool:
    """Is ``key`` a pandas option the facade tolerates as a no-op?

    True for keys in a pandas namespace (``display.*`` etc.) and for
    bare dotless keys (pandas accepts shorthand like ``"max_columns"``)
    that are not LaFP keys.  Unknown *dotted* keys outside the pandas
    namespaces are never foreign -- a typo'd LaFP key must error, not
    silently no-op.  Under a root both use (``io``), a key exactly as
    deep as LaFP's own keys there is a mistyped LaFP key
    (``io.prefech``); pandas' deeper keys (``io.parquet.engine``) stay
    foreign.
    """
    if key in OPTION_TABLE:
        return False
    root = key.split(".", 1)[0]
    if root not in FOREIGN_OPTION_ROOTS:
        return "." not in key
    return key.count(".") not in {
        own.count(".") for own in OPTION_TABLE
        if own.split(".", 1)[0] == root
    }


def tolerated_key(key: str, stacklevel: int = 2) -> Optional[str]:
    """The table key ``key`` names; ``None``, with a warning, for a
    pandas key the facade tolerates as a no-op; :class:`OptionError` for
    anything else.  One policy for ``set_option``, ``option_context``
    and ``lfp.options.<key> = value``."""
    if key in OPTION_TABLE:
        return key
    if not is_foreign_option_key(key):
        canonical_key(key)  # raises
    warnings.warn(
        f"ignoring pandas-compat option {key!r} (not an LaFP option)",
        stacklevel=stacklevel + 1,
    )
    return None


def describe_options() -> str:
    """Human-readable listing of every option, default, and doc line."""
    lines = []
    for key in sorted(OPTION_TABLE):
        spec = OPTION_TABLE[key]
        lines.append(f"{key} (default: {spec.default!r})")
        lines.append(f"    {spec.doc}")
    return "\n".join(lines)


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
        return OPTION_TABLE[key].default

    def set(self, key: str, value: object) -> None:
        key = canonical_key(key)
        OPTION_TABLE[key].check(value)
        self._values[key] = value

    def to_dict(self) -> Dict[str, object]:
        """Every key of the table with its effective value."""
        return {key: self.get(key) for key in sorted(OPTION_TABLE)}

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


class _UnknownOption(OptionError, AttributeError):
    """An attribute that names no option: both a failed lookup
    (``hasattr`` / ``getattr(..., default)`` work) and an option error."""


class OptionsNamespace:
    """Attribute-style proxy over the *current* session's options.

    ``lfp.options.optimizer.predicate_pushdown`` reads; assignment
    writes.  The proxy is stateless: it always resolves the session at
    access time, so it follows ``with Session(...):`` blocks.  A key is
    judged as ``set_option`` / ``get_option`` judge it
    (:func:`is_foreign_option_key`): a pandas key reads ``None`` and an
    assignment to it warns and does nothing; a mistyped LaFP key raises
    :class:`OptionError`.
    """

    __slots__ = ("_prefix",)

    def __init__(self, prefix: str = ""):
        object.__setattr__(self, "_prefix", prefix)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        full = self._prefix + name
        if full in OPTION_TABLE:
            return _current_options().get(full)
        nested = full + "."
        if any(key.startswith(nested) for key in OPTION_TABLE) or (
                not self._prefix and name in FOREIGN_OPTION_ROOTS):
            return OptionsNamespace(nested)
        if self._prefix and is_foreign_option_key(full):
            return None
        if self._prefix and is_foreign_option_key(nested + "_"):
            # ``io.parquet`` of ``io.parquet.engine``, or a mistyped
            # ``io.prefech``: the next step of the access tells which
            return _GroupOrTypo(nested)
        raise _UnknownOption(
            f"no option or option group {full!r}; "
            f"known options: {sorted(OPTION_TABLE)}"
        )

    def __setattr__(self, name: str, value) -> None:
        key = tolerated_key(self._prefix + name)
        if key is not None:
            _current_options().set(key, value)

    def __dir__(self):
        names = set()
        for key in OPTION_TABLE:
            if key.startswith(self._prefix):
                names.add(key[len(self._prefix):].split(".", 1)[0])
        return sorted(names)

    def __repr__(self) -> str:
        values = {key: _current_options().get(key)
                  for key in sorted(OPTION_TABLE)
                  if key.startswith(self._prefix)}
        return f"options[{self._prefix or '*'}] -> {values!r}"


class _GroupOrTypo(OptionsNamespace):
    """An unknown key as deep as LaFP's own under a root pandas shares:
    a pandas option group when the access goes deeper, else a mistyped
    LaFP key -- used as a value, it raises :class:`OptionError`."""

    __slots__ = ()

    def _unknown(self, *args):
        canonical_key(self._prefix[:-1])  # raises

    __bool__ = __eq__ = __ne__ = __hash__ = __str__ = __format__ = _unknown
    __int__ = __float__ = __index__ = __iter__ = __len__ = _unknown

    def __repr__(self) -> str:
        return f"<unknown option or pandas group {self._prefix[:-1]!r}>"


#: The module-level proxy re-exported as ``lfp.options``.
options = OptionsNamespace()
