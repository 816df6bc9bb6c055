#!/usr/bin/env python
"""Repo invariant checks, enforced in CI next to the style linter.

Fifteen structural rules the linters cannot express, checked with
nothing but the stdlib ``ast`` module:

1. **No new module-level mutable globals.**  PR 1 killed the global
   singleton session; the registries (``OPS``, ``_REGISTRY`` options,
   ``DEFAULT_SOURCES``, ``DEFAULT_ANALYZERS``, ``SCHEMA_RULES``) are the
   sanctioned pattern for module-level mutable state.  Everything
   mutable at module scope that exists today is pinned in
   ``MUTABLE_GLOBAL_ALLOWLIST``; adding a new one fails this check so
   the pattern is adopted deliberately, not by drift.  An entry whose
   global is gone fails too, so the list can only shrink.

2. **No real-pandas shortcuts.**  The repro stack *simulates* the
   pandas surface; ``src/repro`` must never import the real thing (nor
   call ``pandas.read_csv``) outside the designated seam -- ``io/``
   (the source layer).  Today there are zero such imports; this keeps
   it that way.

3. **Every ``register_op`` declares its column contract.**  The
   optimizer's projection and predicate passes trust ``mod_attrs`` /
   ``used_attrs``; a registration that omits either silently inherits a
   default that over- or under-claims.  Each call must pass both
   keywords explicitly.

4. **One ready-set loop.**  Under ``graph/scheduler/`` exactly one
   module imports ``heapq`` and exactly one imports
   ``taskgraph.dependency_counts`` (the ``ReadySet`` in ``base.py``):
   every strategy drives that state machine through its submit seam, so
   a strategy module that grows its own ready heap or in-degree map is
   a second scheduling loop reappearing.

5. **No sweep cap in an optimizer pass.**  A pass under
   ``core/optimizer/`` that repeats a whole-graph sweep until nothing
   changes needs a cap (``for _ in range(_MAX_PASSES)``) only because it
   cannot show that it terminates -- and the cap then hides a rewrite
   that undoes itself (two adjacent filters traded places 50 times per
   ``optimize()`` that way).  A pass visits each node a bounded number
   of times over a worklist; a counted throwaway loop there is the
   fixpoint-of-sweeps coming back.

6. **One scan leaf.**  A file read is a ``scan`` node whatever its
   format; ``pd.read_csv`` is the pandas spelling of ``scan_csv``.
   ``"read_csv"`` must not come back as an ``OpSpec`` name, as a
   dask-sim ``Expr`` kind, or on the right of an ``.op`` / ``.kind``
   comparison anywhere under ``src/repro`` -- each of those is the
   second leaf, and the 19 modules that told the two apart, returning.
   (The JIT's matches on the *pandas name* -- ``func.attr ==
   "read_csv"`` over program source -- are not graph ops and pass.)

7. **A plan is a private copy.**  The graph the user holds is built
   once and never rewired: a run optimizes and executes twins of it
   (``graph/taskgraph.py::physical_plan``).  Under ``src/repro`` only
   ``graph/`` may assign a node's ``op``, ``inputs``, ``order_deps`` or
   ``args``, or assign into them (``x.inputs[i] = ...``,
   ``del x.args[k]``, ``x.args.update(...)``) -- an optimizer pass
   builds a fresh node and hands it to ``ConsumerIndex.substitute``, so
   a node's op and args never change once it is built (an object
   initialising its own ``self.`` attributes aside, and the JIT's
   source rewriter, whose nodes are Python ``ast`` nodes);
   ``_snapshot`` / ``_restore`` must not reappear in
   ``core/session.py`` -- with nothing rewired there is nothing to put
   back; and a ``"held"`` leaf is built only by the twin constructor
   (``Node.twin``), so "this value is already computed" has one
   spelling that every pass sees, not a ``.computed`` test per pass.

8. **One aggregate plan.**  How an aggregate spec becomes output
   columns and how each function splits into per-partition partials
   and a combine step is decided in ``frame/groupby.py``
   (``agg_outputs`` / ``decompose`` / ``combine_partials``); the
   partitioned backends and the shuffle lowering call it.  Under
   ``backends/`` and ``core/`` a dict or set literal holding three or
   more of the aggregate names ``sum`` / ``count`` / ``min`` / ``max`` /
   ``mean`` / ``size`` / ``first`` is a second copy of that table (the
   Dask sim's ``_PARTIAL_PLANS``, either ``_RECOMBINE``) coming back.

9. **One stats model.**  A run's counters are the fields declared in
   ``graph/scheduler/stats.py``, ``ExecutionStats.add`` is the one
   method that bumps them, and the layer doing the work calls it (or
   ``count``, for the run bound on its thread).  The second routes must
   not come back under ``src/repro``: a per-session ``IOCounters`` /
   ``session_io_counters`` diffed around the run, a ``flush_to_stats``
   copying counters someone else kept, the scheduler's
   ``_record_op_stats`` inspection of nodes after they ran, or a
   ``def record_*`` method per counter.

10. **One join plan.**  Which columns a merge joins on, what its output
    columns are called and whether merging partition by partition
    against a materialized right side is exact are decided in
    ``frame/merge.py`` (``join_keys`` / ``join_labels`` /
    ``can_broadcast``), and a shuffle join runs the kernels of
    ``backends/shuffle_ops.py``; the planner and both simulators call
    them.  The Dask sim's private copies must not come back under
    ``src/repro`` -- its side flip, hash, bucket gatherer, key and
    column rules -- and outside ``frame/merge.py`` neither may a second
    broadcast rule: a ``can_broadcast`` definition, or a membership test
    against exactly ``("inner", "left")``.

11. **One memory rule.**  A budgeted run admits one task at a time
    (``graph/scheduler/base.py::Scheduler._throttled``), so every
    strategy allocates and spills where ``serial`` does and an OOM is a
    real one.  Under ``backends/`` and ``graph/scheduler/`` the repairs
    that concurrency used to need must not come back: a ``time.sleep``
    back-off, an ``except SimulatedMemoryError`` anywhere but
    ``shuffle_ops.drain_bucket`` (the one spill-and-read-again fallback,
    for the Dask sim's undershooting bucket estimate), or the names
    ``_guarded``, ``_OOM_RETRYABLE_OPS``, ``_apply_with_spill_retry`` and
    ``_resolve_auto_workers``.

12. **One partitioned executor.**  The Dask engine runs the task graph
    cut per partition (``core/optimizer/partitions.py``) on the one
    scheduler; baseline Dask mode builds the same per-partition nodes,
    and baseline Modin mode runs them as each op is built.  The
    simulators' second executors must not come back under
    ``src/repro``: a ``class Expr`` graph, a ``class Evaluator`` or an
    ``eval_partition`` walk, a ``PartitionStore`` of its own beside the
    shuffle stores, ``persist_shared_nodes`` pinning around it, or an
    ``is_lazy`` flag for the planner and the session to branch on; and
    under ``backends/`` a ``ThreadPoolExecutor`` of a backend's own,
    the ``register_at_fork`` hook rebuilding it, or the Modin sim's
    partition maps and re-splits (``_pmap``, ``_zip_map``,
    ``_resplit``, ``_split_series``).

13. **One source per session.**  Every consumer of a ``scan`` node
    takes its :class:`~repro.io.source.DataSource` from the session's
    source table (``io/source_table.py::session_source``), which reads a
    file's header, partitions and metastore entry once per session.  A
    ``resolve_source(...)`` call anywhere else under ``src/repro`` is a
    fresh source re-reading all three -- five to eight times per
    ``collect()``, as before the table; only the table and the
    function's own module (``io/registry.py``) call it.

14. **One scan contract.**  A source hands the columns a read needs to
    ``DataSource.assemble`` (``io/source.py``) as builders; the
    assembly builds the predicate's columns, computes the mask, and
    builds, filters and drops one column at a time.  No module under
    ``io/`` filters a whole read frame after the fact, which holds the
    unfiltered frame beside its filtered copy: outside ``assemble`` no
    ``.filter(...)`` or ``.mask(...)`` call, and no ``_finish`` at all.

15. **One partition lowering.**  A merge or a group-by too big for
    memory is lowered by the partition cut
    (``core/optimizer/partitions.py``) behind one size gate
    (``core/optimizer/shuffle.py::lower_shuffle_nodes``), on every
    engine.  The second lowering must not come back under
    ``src/repro``: a streaming scan (a ``PartitionStream``, or a
    ``"stream"`` scan arg) or the shuffle pass's own rewrites
    (``_lower_merge``, ``_lower_groupby``, ``_rewrite_partial``,
    ``_rewrite_bucketed``, ``_streamable_scan``).

Usage::

    python tools/check_invariants.py          # repo root, exit 1 on fail
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

# ---------------------------------------------------------------------------
# check 1: module-level mutable globals


#: constructor calls that produce mutable containers.
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict"}

#: value node types that are mutable container literals.
_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)

#: every module-level mutable global that exists today, pinned.
#: (path relative to src/repro, name).  Registry singletons
#: (``*Registry()`` instantiations) are allowed structurally and do not
#: need pinning.  To add a new entry, prefer one of the registries; if
#: the table really is a new frozen lookup table, pin it here in the
#: same commit that introduces it.
MUTABLE_GLOBAL_ALLOWLIST = {
    ("analysis/dataflow/frames.py", "PANDAS_MODULES"),
    ("analysis/dataflow/frames.py", "FRAME_PRESERVING"),
    ("analysis/dataflow/frames.py", "FRAME_TRANSFORMING"),
    ("analysis/dataflow/frames.py", "FRAME_TO_SERIES"),
    ("analysis/dataflow/frames.py", "SERIES_METHODS"),
    ("analysis/dataflow/frames.py", "SERIES_AGGS"),
    ("analysis/dataflow/frames.py", "GROUPBY_AGGS"),
    ("analysis/dataflow/frames.py", "INFORMATIVE"),
    ("analysis/dataflow/live_attributes.py", "_DERIVING"),
    ("analysis/dataflow/typeinfer.py", "_PRIORITY"),
    ("analysis/plan/rules.py", "_FRAME_CONSUMING"),
    ("analysis/plan/rules.py", "BUILTIN_RULES"),
    ("analysis/plan/schema.py", "_NUMERIC_DTYPES"),
    ("analysis/plan/schema.py", "_UNKNOWN_SCHEMAS"),
    ("analysis/plan/schema.py", "SCHEMA_RULES"),
    ("analysis/rewrite/forced_compute.py", "_LAZY_KINDS"),
    ("backends/base.py", "_BINOPS"),
    ("core/config.py", "_REGISTRY"),
    ("core/lazyframe.py", "_BINOP_LABELS"),
    ("frame/dtypes.py", "_ALIASES"),
    ("graph/explain.py", "_ELIDED_ARGS"),
    ("graph/explain.py", "_SCAN_SPECIAL"),
    ("graph/node.py", "OPS"),
    ("io/columnar.py", "_FOOTER_CACHE"),
    ("io/fs.py", "_FILESYSTEMS"),
    ("io/fs.py", "_CODECS"),
    ("lazyfatpandas/pandas.py", "_SYNCED_MODULES"),
    ("workloads/datagen.py", "PARTITION_KEYS"),
    ("workloads/datagen.py", "_GENERATORS"),
    ("workloads/programs.py", "PROGRAMS"),
    ("workloads/runner.py", "SCALES"),
    ("workloads/runner.py", "MODES"),
    ("workloads/runner.py", "_HEADERS"),
    ("workloads/runner.py", "_BACKEND_OF_MODE"),
}


def _is_registry_call(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = getattr(func, "id", None) or getattr(func, "attr", None) or ""
    return name.endswith("Registry")


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def mutable_globals(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every module-level mutable container."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if value is None or _is_registry_call(value):
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if target.id != "__all__":
                yield target.id, stmt.lineno


def check_mutable_globals(tree: ast.Module, rel: str) -> Iterator[str]:
    for name, lineno in mutable_globals(tree):
        if (rel, name) not in MUTABLE_GLOBAL_ALLOWLIST:
            yield (
                f"src/repro/{rel}:{lineno}: new module-level mutable "
                f"global '{name}' -- use a registry "
                f"(see tools/check_invariants.py) or pin it in "
                f"MUTABLE_GLOBAL_ALLOWLIST"
            )


def check_allowlist_is_live(pinned_seen: set) -> Iterator[str]:
    for rel, name in sorted(MUTABLE_GLOBAL_ALLOWLIST - pinned_seen):
        yield (
            f"tools/check_invariants.py: MUTABLE_GLOBAL_ALLOWLIST pins "
            f"('{rel}', '{name}'), which no longer exists -- drop the entry"
        )


# ---------------------------------------------------------------------------
# check 2: real-pandas imports / pandas.read_csv calls

#: modules allowed to touch real pandas, should the need ever arise:
#: the source layer.
_PANDAS_ALLOWED_PREFIXES = ("io/",)
_PANDAS_ALLOWED_FILES = ()


def _pandas_allowed(rel: str) -> bool:
    return rel in _PANDAS_ALLOWED_FILES or rel.startswith(
        _PANDAS_ALLOWED_PREFIXES
    )


def check_real_pandas(tree: ast.Module, rel: str) -> Iterator[str]:
    if _pandas_allowed(rel):
        return
    pandas_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pandas" or alias.name.startswith("pandas."):
                    pandas_aliases.add(alias.asname or alias.name.split(".")[0])
                    yield (
                        f"src/repro/{rel}:{node.lineno}: imports real "
                        f"pandas; the repro stack must stay "
                        f"self-contained outside io/"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "pandas" or (
                node.module or ""
            ).startswith("pandas."):
                yield (
                    f"src/repro/{rel}:{node.lineno}: imports from real "
                    f"pandas; the repro stack must stay self-contained "
                    f"outside io/"
                )
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "read_csv":
            continue
        base = node.func.value
        base_name = getattr(base, "id", None)
        if base_name in pandas_aliases or base_name == "pandas":
            yield (
                f"src/repro/{rel}:{node.lineno}: direct pandas.read_csv "
                f"call; go through the source layer (repro.io) instead"
            )


# ---------------------------------------------------------------------------
# check 3: register_op must declare mod_attrs and used_attrs


def check_register_op(tree: ast.Module, rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name != "register_op":
            continue
        # the contract keywords live on the wrapped OpSpec(...) call
        # (register_op(OpSpec(...))) or, for a hypothetical keyword
        # form, on register_op itself.
        spec_call = node
        if node.args and isinstance(node.args[0], ast.Call):
            spec_call = node.args[0]
        keywords = {kw.arg for kw in spec_call.keywords if kw.arg}
        keywords |= {kw.arg for kw in node.keywords if kw.arg}
        missing = sorted({"mod_attrs", "used_attrs"} - keywords)
        if missing:
            yield (
                f"src/repro/{rel}:{node.lineno}: register_op call missing "
                f"explicit {', '.join(missing)} -- the optimizer trusts "
                f"these; declare the op's column contract"
            )


# ---------------------------------------------------------------------------
# check 4: one ready-set loop under graph/scheduler/

_SCHEDULER_DIR = "graph/scheduler/"
#: what a ready-set loop cannot be written without.
_READY_LOOP_IMPORTS = ("heapq", "dependency_counts")


def ready_loop_imports(tree: ast.Module) -> Iterator[str]:
    """The ``_READY_LOOP_IMPORTS`` this module imports (anywhere, so a
    function-level import counts)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        for name in names:
            if name in _READY_LOOP_IMPORTS:
                yield name


def check_one_ready_loop(importers: dict) -> Iterator[str]:
    for name in _READY_LOOP_IMPORTS:
        modules = sorted(importers.get(name, ()))
        if len(modules) != 1:
            yield (
                f"src/repro/{_SCHEDULER_DIR}: '{name}' must be imported by "
                f"exactly one module (the ReadySet's), found "
                f"{modules or 'none'} -- drive the shared ReadySet instead "
                f"of adding a scheduling loop"
            )


# ---------------------------------------------------------------------------
# check 5: no sweep cap in an optimizer pass

_OPTIMIZER_DIR = "core/optimizer/"


def check_no_sweep_cap(tree: ast.Module, rel: str) -> Iterator[str]:
    if not rel.startswith(_OPTIMIZER_DIR):
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and node.target.id.startswith("_")
                and isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", None) == "range"
                and len(node.iter.args) == 1):
            continue
        bound = node.iter.args[0]
        capped = (
            isinstance(bound, ast.Constant)
            or isinstance(bound, ast.Name) and bound.id.isupper()
        )
        if capped:
            yield (
                f"src/repro/{rel}:{node.lineno}: a loop that runs a fixed "
                f"number of times and ignores its counter -- a sweep cap; "
                f"an optimizer pass terminates by construction (visit "
                f"each node a bounded number of times over a worklist)"
            )


# ---------------------------------------------------------------------------
# check 6: one scan leaf

_SECOND_LEAF = "read_csv"
#: what a graph node and a dask-sim expression call their kind.
_KIND_ATTRS = ("op", "kind")


def _names_second_leaf(value: ast.expr) -> bool:
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_second_leaf(item) for item in value.elts)
    return isinstance(value, ast.Constant) and value.value == _SECOND_LEAF


def check_one_scan_leaf(tree: ast.Module, rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None)
            named = node.args[:1] + [
                kw.value for kw in node.keywords if kw.arg in ("name", "kind")
            ]
            if name in ("OpSpec", "Expr") and any(
                _names_second_leaf(value) for value in named
            ):
                yield (
                    f"src/repro/{rel}:{node.lineno}: {name}("
                    f"{_SECOND_LEAF!r}) -- a file read is a 'scan' node; "
                    f"do not add a second leaf"
                )
        elif isinstance(node, ast.Compare):
            left = node.left
            kind = getattr(left, "attr", None) or getattr(left, "id", None)
            if kind in _KIND_ATTRS and any(
                _names_second_leaf(value) for value in node.comparators
            ):
                yield (
                    f"src/repro/{rel}:{node.lineno}: compares .{kind} with "
                    f"{_SECOND_LEAF!r} -- there is no such op; a file read "
                    f"is a 'scan' node (branch on args['format'] if the "
                    f"format matters)"
                )


# ---------------------------------------------------------------------------
# check 7: a plan is a private copy

#: what a graph node is: only graph/ builds it, or rewires it.
_NODE_WIRING = ("op", "inputs", "order_deps", "args")
#: where nodes are built and rewired.
_MAY_REWIRE = "graph/"
#: the JIT's source rewriter: the nodes it edits are Python ``ast``
#: nodes (``call.args[i] = ...`` is an ``ast.Call``'s).
_EDITS_PYTHON_AST = "analysis/rewrite/"
#: the dict methods that change a node's args in place.
_DICT_WRITES = ("update", "pop", "popitem", "setdefault", "clear")
_SESSION = "core/session.py"
_REPAIR_NAMES = ("_snapshot", "_restore")
_HELD = "held"
_TWIN_CONSTRUCTOR = ("graph/node.py", "twin")


def _assigned_attributes(tree: ast.AST) -> Iterator[Tuple[ast.Attribute, ast.AST]]:
    """(attribute target, assigned value or None) of every assignment,
    tuple targets unpacked."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                values = (
                    value.elts
                    if isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)
                    else [None] * len(target.elts)
                )
                pairs.extend(zip(target.elts, values))
            elif isinstance(target, ast.Attribute):
                yield target, value


def _assigned_wiring(tree: ast.AST) -> Iterator[ast.Attribute]:
    """Each attribute assigned to, each wiring attribute assigned or
    deleted into (``x.inputs[i] = ...``), and each ``x.args`` a dict
    method writes to (``x.args.update(...)``)."""
    for target, _value in _assigned_attributes(tree):
        yield target
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_WRITES
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "args"):
            yield node.func.value
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in _NODE_WIRING):
                yield target.value


def _builds_held(tree: ast.AST) -> Iterator[int]:
    """Lines that make a ``held`` node: ``x.op = "held"`` or
    ``Node("held", ...)``."""
    for target, value in _assigned_attributes(tree):
        if (target.attr == "op" and isinstance(value, ast.Constant)
                and value.value == _HELD):
            yield target.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Node"
                and node.args and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == _HELD):
            yield node.lineno


def check_plan_is_private(tree: ast.Module, rel: str) -> Iterator[str]:
    if not rel.startswith((_MAY_REWIRE, _EDITS_PYTHON_AST)):
        for target in _assigned_wiring(tree):
            if getattr(target.value, "id", None) == "self":
                continue
            if target.attr in _NODE_WIRING:
                yield (
                    f"src/repro/{rel}:{target.lineno}: assigns a node's "
                    f".{target.attr} -- only graph/ builds or rewires "
                    f"nodes: a rewrite builds a fresh node and hands it "
                    f"to graph/taskgraph.py::ConsumerIndex.substitute"
                )
    if rel == _SESSION:
        for node in ast.walk(tree):
            name = getattr(node, "name", None) or getattr(node, "attr", None)
            if name in _REPAIR_NAMES:
                yield (
                    f"src/repro/{rel}:{node.lineno}: {name} -- a run "
                    f"rewrites a private copy of the graph; there is "
                    f"nothing to snapshot or restore"
                )
    module, constructor = _TWIN_CONSTRUCTOR
    allowed = set()
    if rel == module:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == constructor:
                allowed.update(_builds_held(node))
    for lineno in _builds_held(tree):
        if lineno not in allowed:
            yield (
                f"src/repro/{rel}:{lineno}: builds a {_HELD!r} node -- "
                f"only {module}::Node.{constructor} does, from a node "
                f"that holds its value"
            )


# ---------------------------------------------------------------------------
# check 8: one aggregate plan

_AGGREGATE_NAMES = frozenset(
    {"sum", "count", "min", "max", "mean", "size", "first"})
#: where a table of them is a copy of ``frame/groupby.py``'s.
_NO_AGGREGATE_TABLES = ("backends/", "core/")


def check_one_aggregate_plan(tree: ast.Module, rel: str) -> Iterator[str]:
    if not rel.startswith(_NO_AGGREGATE_TABLES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            items = [*node.keys, *node.values]
        elif isinstance(node, ast.Set):
            items = node.elts
        else:
            continue
        named = {
            item.value for item in items
            if isinstance(item, ast.Constant)
            and item.value in _AGGREGATE_NAMES
        }
        if len(named) >= 3:
            yield (
                f"src/repro/{rel}:{node.lineno}: a table of aggregate "
                f"functions ({', '.join(sorted(named))}) -- which "
                f"functions decompose and how their partials recombine "
                f"is frame/groupby.py's decision (decompose / "
                f"combine_partials); call it instead of copying it"
            )


# ---------------------------------------------------------------------------
# check 9: one stats model

#: the deleted routes by which a counter reached ``ExecutionStats``.
_SECOND_STATS_ROUTES = frozenset({
    "IOCounters", "session_io_counters", "flush_to_stats",
    "_record_op_stats",
})
_PER_COUNTER_METHOD = "record_"


def check_one_stats_model(tree: ast.Module, rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        else:
            names = [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)]
        lineno = getattr(node, "lineno", 0)
        for name in names:
            if name in _SECOND_STATS_ROUTES:
                yield (
                    f"src/repro/{rel}:{lineno}: {name} -- a count is "
                    f"written where the work happens, into the run's one "
                    f"record (graph/scheduler/stats.py: ExecutionStats.add "
                    f"/ count); nothing keeps counters beside it"
                )
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith(_PER_COUNTER_METHOD)):
            yield (
                f"src/repro/{rel}:{lineno}: def {node.name} -- one method "
                f"bumps a counter (ExecutionStats.add); declare the "
                f"counter as a field and add() to it at the site"
            )


# ---------------------------------------------------------------------------
# check 10: one join plan

#: the Dask sim's deleted private join planner.
_SECOND_JOIN_PLAN = frozenset({
    "_flip_merge_kwargs", "_bucket_codes", "_string_hash", "_partition_side",
    "_gather_bucket", "_merged_columns", "_merge_keys",
})
_JOIN_PLAN = "frame/merge.py"
_BROADCAST_RULE = "can_broadcast"
_BROADCAST_HOWS = frozenset({"inner", "left"})


def _is_broadcast_test(node: ast.AST) -> bool:
    """``x in ("inner", "left")`` (any literal collection, any order)."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))):
        return False
    values = node.comparators[0]
    if not isinstance(values, (ast.Tuple, ast.List, ast.Set)):
        return False
    named = [item.value for item in values.elts
             if isinstance(item, ast.Constant)]
    return len(named) == len(values.elts) and set(named) == _BROADCAST_HOWS


def check_one_join_plan(tree: ast.Module, rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        else:
            names = [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)]
        lineno = getattr(node, "lineno", 0)
        for name in names:
            if name in _SECOND_JOIN_PLAN:
                yield (
                    f"src/repro/{rel}:{lineno}: {name} -- a merge's keys, "
                    f"labels and broadcast rule are {_JOIN_PLAN}'s, its "
                    f"shuffle kernels backends/shuffle_ops.py's; call "
                    f"them instead of planning a join of your own"
                )
        if rel == _JOIN_PLAN:
            continue
        second_rule = _is_broadcast_test(node) or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == _BROADCAST_RULE)
        if second_rule:
            yield (
                f"src/repro/{rel}:{lineno}: a second broadcast rule -- "
                f"whether a partition-at-a-time merge is exact is "
                f"{_JOIN_PLAN}::{_BROADCAST_RULE}'s decision"
            )


# ---------------------------------------------------------------------------
# check 11: one memory rule

_MEMORY_RULE_DIRS = ("backends/", _SCHEDULER_DIR)
#: the deleted after-the-fact OOM repairs and the pool sizing they fed.
_OOM_REPAIRS = frozenset({
    "_guarded", "_OOM_RETRYABLE_OPS", "_apply_with_spill_retry",
    "_resolve_auto_workers",
})
_OOM = "SimulatedMemoryError"
_OOM_FALLBACK = ("backends/shuffle_ops.py", "drain_bucket")


def _catches_oom(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        (getattr(t, "id", None) or getattr(t, "attr", None)) == _OOM
        for t in types
    )


def _sleeps(node: ast.AST) -> bool:
    """``time.sleep`` or ``from time import sleep``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "sleep" and getattr(node.value, "id", None) == "time"
    return isinstance(node, ast.ImportFrom) and node.module == "time" and any(
        alias.name == "sleep" for alias in node.names)


def check_one_memory_rule(tree: ast.Module, rel: str) -> Iterator[str]:
    if not rel.startswith(_MEMORY_RULE_DIRS):
        return
    module, fallback = _OOM_FALLBACK
    allowed = set()
    if rel == module:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == fallback:
                allowed.update(id(h) for h in ast.walk(node)
                               if isinstance(h, ast.ExceptHandler))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        else:
            names = [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)]
        lineno = getattr(node, "lineno", 0)
        for name in names:
            if name in _OOM_REPAIRS:
                yield (
                    f"src/repro/{rel}:{lineno}: {name} -- a budgeted run "
                    f"admits one task at a time, so there is no OOM to "
                    f"repair after the fact and no pool to size"
                )
        if _sleeps(node):
            yield (
                f"src/repro/{rel}:{lineno}: time.sleep -- waiting for "
                f"other tasks to free memory is a race; under a budget "
                f"nothing else is in flight"
            )
        if (isinstance(node, ast.ExceptHandler) and _catches_oom(node)
                and id(node) not in allowed):
            yield (
                f"src/repro/{rel}:{lineno}: except {_OOM} -- an OOM under "
                f"the one memory rule is a real one; only "
                f"{module}::{fallback} spills and reads again"
            )


# ---------------------------------------------------------------------------
# check 12: one partitioned executor

#: the Dask sim's deleted executor and the branches around it.
_SECOND_EXECUTOR_CLASSES = frozenset({"Expr", "Evaluator"})
_SECOND_EXECUTOR_NAMES = frozenset({
    "eval_partition", "PartitionStore", "persist_shared_nodes", "is_lazy",
})
#: the Modin sim's deleted executor: a pool of its own, the fork hook
#: rebuilding it, and the maps and re-splits it ran.
_BACKEND_POOL_NAMES = frozenset({
    "ThreadPoolExecutor", "register_at_fork", "_pmap", "_zip_map",
    "_resplit", "_split_series",
})


def check_one_partitioned_executor(tree: ast.Module,
                                   rel: str) -> Iterator[str]:
    banned = _SECOND_EXECUTOR_NAMES
    if rel.startswith("backends/"):
        banned = banned | _BACKEND_POOL_NAMES
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(node.name)
            elif (isinstance(node, ast.ClassDef)
                  and node.name in _SECOND_EXECUTOR_CLASSES):
                names.append(f"class {node.name}")
        lineno = getattr(node, "lineno", 0)
        for name in names:
            if name in banned or (name or "").startswith("class "):
                yield (
                    f"src/repro/{rel}:{lineno}: {name} -- the partitioned "
                    f"engines run the task graph cut per partition "
                    f"(core/optimizer/partitions.py) on the one scheduler; "
                    f"no second executor, pool, store or lazy-engine branch"
                )


# ---------------------------------------------------------------------------
# check 13: one source per session

#: the modules that may call ``resolve_source``: the session source
#: table and the registry that defines it.
_RESOLVERS = frozenset({"io/source_table.py", "io/registry.py"})


def check_one_source_per_session(tree: ast.Module,
                                 rel: str) -> Iterator[str]:
    if rel in _RESOLVERS:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (getattr(func, "id", None) or getattr(func, "attr", None)) \
                == "resolve_source":
            yield (
                f"src/repro/{rel}:{node.lineno}: resolve_source(...) -- a "
                f"fresh source re-reads the header, partitions and "
                f"metastore entry; take the session's one "
                f"(io/source_table.py::session_source)"
            )


# ---------------------------------------------------------------------------
# check 14: one scan contract

#: row-filtering calls a read must leave to the assembly step.
_ROW_FILTER_CALLS = frozenset({"filter", "mask"})


def check_one_scan_contract(tree: ast.Module, rel: str) -> Iterator[str]:
    if not rel.startswith("io/"):
        return
    assembly = set()
    if rel == "io/source.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "assemble":
                assembly.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        else:
            name = getattr(node, "attr", None)
        if name == "_finish":
            yield (
                f"src/repro/{rel}:{node.lineno}: _finish -- a read is "
                f"assembled column by column (DataSource.assemble), not "
                f"filtered whole after the fact"
            )
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in _ROW_FILTER_CALLS
                and id(node) not in assembly):
            yield (
                f"src/repro/{rel}:{node.lineno}: .{node.func.attr}(...) -- "
                f"rows are filtered in DataSource.assemble (io/source.py), "
                f"one column at a time; a whole read frame filtered here "
                f"is live beside its filtered copy"
            )


# ---------------------------------------------------------------------------
# check 15: one partition lowering

#: the streaming scan and the shuffle pass's deleted rewrites.
_SECOND_LOWERING_NAMES = frozenset({
    "PartitionStream", "_lower_merge", "_lower_groupby", "_rewrite_partial",
    "_rewrite_bucketed", "_streamable_scan",
})


def check_one_partition_lowering(tree: ast.Module,
                                 rel: str) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == "stream":
            yield (
                f"src/repro/{rel}:{node.lineno}: \"stream\" -- a scan is "
                f"cut per partition (core/optimizer/partitions.py), "
                f"never streamed to its consumer"
            )
            continue
        if isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
        for name in names:
            if name in _SECOND_LOWERING_NAMES:
                yield (
                    f"src/repro/{rel}:{node.lineno}: {name} -- merges and "
                    f"group-bys are lowered by the partition cut "
                    f"(core/optimizer/partitions.py) behind one size gate "
                    f"(core/optimizer/shuffle.py::lower_shuffle_nodes)"
                )


# ---------------------------------------------------------------------------

CHECKS = (check_mutable_globals, check_real_pandas, check_register_op,
          check_no_sweep_cap, check_one_scan_leaf, check_plan_is_private,
          check_one_aggregate_plan, check_one_stats_model,
          check_one_join_plan, check_one_memory_rule,
          check_one_partitioned_executor, check_one_source_per_session,
          check_one_scan_contract, check_one_partition_lowering)


def run(src: Path = SRC) -> List[str]:
    failures: List[str] = []
    loop_importers: dict = {}
    pinned_seen: set = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - ruff catches first
            failures.append(f"src/repro/{rel}: syntax error: {exc}")
            continue
        for check in CHECKS:
            failures.extend(check(tree, rel))
        pinned_seen.update((rel, name) for name, _ in mutable_globals(tree))
        if rel.startswith(_SCHEDULER_DIR):
            for name in ready_loop_imports(tree):
                loop_importers.setdefault(name, set()).add(rel)
    failures.extend(check_one_ready_loop(loop_importers))
    failures.extend(check_allowlist_is_live(pinned_seen))
    return failures


def main() -> int:
    failures = run()
    if failures:
        print(f"{len(failures)} invariant violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
