"""The traced pass: spans recorded from outside the program.

``Tracer.install()`` wraps the public entry points the harness already
calls into -- the session's ``compute`` / ``explain`` / ``validate``, the
optimizer and its passes, the plan analyzer, the JIT
source rewriter, fingerprinting and the result cache, the scheduler,
the backends' per-node ``apply`` and ``materialize``, every source's
``read_partition``, ``fetch_range`` and the shuffle store -- and
``remove()`` puts the originals back.  The wrappers exist only during
the one traced pass; no timed pass ever runs with them installed.

A span is ``{name, layer, start, end, parent, op, tid}``; all spans of
one op share the op's id.  Spans live in memory and are written when
the run ends: a Chrome trace (``chrome://tracing`` / Perfetto) plus a
per-layer self-time table.

Self time is attributed by wall clock: at every instant the running op's
time belongs to the spans that are active and have no active child,
shared equally when worker threads run several at once.  So the layers'
self times add up to the traced pass exactly, threaded ops included.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, List, Optional

#: span-name prefix -> layer of the self-time table.  Node spans are
#: ``exec.<op>``; the shuffle operators are their own layer because the
#: out_of_core workload is about them.
SHUFFLE_OPS = frozenset(
    ["shuffle_write", "shuffle_read", "partial_agg", "combine_agg", "compact"]
)
LAYERS = (
    "analysis", "core", "graph", "cache", "io", "io.spill",
    "backends", "backends.shuffle", "workloads", "driver",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []
        self._op_id = 0
        #: innermost ``Scheduler.execute`` span: worker threads have no
        #: stack of their own, their spans hang off it.
        self._execute_span: Optional[int] = None
        self._op_span: Optional[int] = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._execute_span is not None:
            parent = self._execute_span
        else:
            parent = self._op_span
        record = {
            "name": name, "layer": layer, "parent": parent,
            "op": self._op_id, "tid": threading.get_ident(),
            "start": 0.0, "end": 0.0,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield index
        finally:
            # strictly after the start, so the sweep in self_seconds()
            # always sees a span open before it closes
            record["end"] = max(time.perf_counter(), record["start"] + 1e-9)
            stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """The root span of one op; everything under it shares its id."""
        self._op_id += 1
        with self.span(f"op:{name}", "driver") as index:
            self._op_span = index
            try:
                yield index
            finally:
                self._op_span = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, owner, attr: str, name, layer) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` / ``layer`` are strings, or callables of the wrapped
        call's positional arguments when the span is named after them.
        """
        func = owner.__dict__[attr]  # a class's own method, or a module global
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            span_layer = layer(*args) if callable(layer) else layer
            with tracer.span(span_name, span_layer):
                return func(*args, **kwargs)

        self._patched.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import repro.analysis.jit as jit
        import repro.analysis.plan as plan
        import repro.core.optimizer as optimizer
        import repro.core.optimizer.cache as reuse
        import repro.core.optimizer.pipeline as pipeline
        import repro.io.columnar as columnar
        from repro.backends.base import Backend
        from repro.backends.dask_backend import DaskBackend
        from repro.backends.modin_backend import ModinBackend
        from repro.backends.pandas_backend import PandasBackend
        from repro.cache.result_cache import ResultCache
        from repro.core.session import Session
        from repro.graph.scheduler.base import Scheduler
        from repro.io import (
            ColumnarSource, CsvSource, DatasetSource, JsonlSource,
            ShuffleStore,
        )

        # the session's own share of a collect (the analysis gate's memo,
        # snapshot/restore around the optimizer, releasing dead persists)
        # is whatever of these spans their children do not cover
        self._wrap(Session, "compute", "core.session.compute", "core")
        self._wrap(Session, "flush", "core.session.flush", "core")
        self._wrap(Session, "explain", "core.session.explain", "core")
        self._wrap(Session, "validate", "core.session.validate", "core")
        self._wrap(jit, "optimize_source", "analysis.jit.rewrite", "analysis")
        self._wrap(plan, "analyze_plan", "analysis.plan.analyze", "analysis")
        self._wrap(optimizer, "optimize", "core.optimize", "core")
        for attr, short in (
            ("substitute_cached_subplans", "reuse"),
            ("eliminate_common_subexpressions", "cse"),
            ("push_down_predicates", "pushdown"),
            ("fold_predicates_into_scans", "scan_fold"),
            ("push_down_projections", "projection"),
            ("apply_metadata_hints", "metadata"),
            ("prune_scan_partitions", "pruning"),
            ("lower_shuffle_nodes", "shuffle_lower"),
        ):
            self._wrap(pipeline, attr, f"core.optimizer.{short}",
                       "cache" if short == "reuse" else "core")
        self._wrap(reuse, "fingerprint_node", "cache.fingerprint", "cache")
        self._wrap(ResultCache, "get", "cache.get", "cache")
        self._wrap(ResultCache, "put", "cache.put", "cache")
        self._wrap_execute(Scheduler)
        self._wrap(
            Backend, "apply",
            lambda backend, node, inputs: f"exec.{node.op}",
            lambda backend, node, inputs: (
                "backends.shuffle" if node.op in SHUFFLE_OPS else "backends"),
        )
        for backend in (PandasBackend, ModinBackend, DaskBackend):
            # where the lazy engines actually compute
            for attr in ("materialize", "persist"):
                self._wrap(backend, attr, f"backends.{attr}", "backends")
        for source, fmt in ((CsvSource, "csv"), (JsonlSource, "jsonl"),
                            (DatasetSource, "dataset"),
                            (ColumnarSource, "columnar")):
            self._wrap(source, "read_partition",
                       f"io.{fmt}.read_partition", "io")
        self._wrap(columnar, "fetch_range", "io.fetch_range", "io")
        for attr in ("append", "spill", "read_bucket"):
            self._wrap(ShuffleStore, attr, f"io.spill.{attr}", "io.spill")

    def _wrap_execute(self, scheduler_cls) -> None:
        original = scheduler_cls.execute
        tracer = self

        def execute(scheduler, roots):
            with tracer.span("graph.scheduler.execute", "graph") as index:
                outer, tracer._execute_span = tracer._execute_span, index
                try:
                    return original(scheduler, roots)
                finally:
                    tracer._execute_span = outer

        self._patched.append((scheduler_cls, "execute", original))
        scheduler_cls.execute = execute

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_seconds(self) -> List[float]:
        """Per-span self time by wall-clock attribution (see module doc)."""
        spans = self.spans
        self_time = [0.0] * len(spans)
        by_op: Dict[int, List[int]] = {}
        for index, span in enumerate(spans):
            by_op.setdefault(span["op"], []).append(index)
        for indices in by_op.values():
            events = []
            for index in indices:
                span = spans[index]
                # ends sort before starts at one instant, so a span is
                # never a leaf for a zero-length overlap with its sibling
                events.append((span["start"], 1, index))
                events.append((span["end"], 0, index))
            events.sort()
            active_children: Dict[int, int] = {}
            leaves = set()
            previous = events[0][0]
            for when, is_start, index in events:
                if leaves and when > previous:
                    share = (when - previous) / len(leaves)
                    for leaf in leaves:
                        self_time[leaf] += share
                previous = when
                parent = spans[index]["parent"]
                if is_start:
                    active_children[index] = 0
                    leaves.add(index)
                    if parent in active_children:
                        active_children[parent] += 1
                        leaves.discard(parent)
                else:
                    leaves.discard(index)
                    del active_children[index]
                    if parent in active_children:
                        active_children[parent] -= 1
                        if active_children[parent] == 0:
                            leaves.add(parent)
        return self_time

    def layer_table(self, by_op=None) -> Dict[str, float]:
        """Layer -> summed self seconds over the traced pass."""
        by_op = by_op or self.layer_table_by_op()
        return {layer: sum(row.get(layer, 0.0) for row in by_op.values())
                for layer in LAYERS}

    def layer_table_by_op(self) -> Dict[str, Dict[str, float]]:
        """Op name -> layer -> self seconds (the README's share checks)."""
        names = {
            span["op"]: span["name"][3:]
            for span in self.spans if span["name"].startswith("op:")
        }
        out: Dict[str, Dict[str, float]] = {}
        for span, seconds in zip(self.spans, self.self_seconds()):
            row = out.setdefault(names.get(span["op"], "?"), {})
            row[span["layer"]] = row.get(span["layer"], 0.0) + seconds
        return out

    def traced_seconds(self) -> float:
        return sum(
            span["end"] - span["start"]
            for span in self.spans if span["name"].startswith("op:")
        )

    def write_chrome_trace(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": span["name"], "cat": span["layer"], "ph": "X",
                "pid": 1, "tid": span["tid"],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"op": span["op"], "parent": span["parent"],
                         "id": index},
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
