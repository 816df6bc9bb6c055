"""``interactive_session``: a notebook on small data.

101 collects of *distinct* paper-shaped, 40-deep-chain and
12-wide-fan-out plans over 400-row tables, 75 re-collects of unchanged
roots, 40 ``explain()`` and 70 ``validate()`` calls, and a result-cache
group over one 48 000-row table.  The data is too small to matter, so ``core``
(graph build, ``optimize()``), ``analysis.plan``, ``cache`` and the
``graph`` scheduler's dispatch do most of the work and ``frame`` / ``io``
little -- the opposite of ``paper_programs``.  It is the workload on
which a planner, tracing or scheduler-loop change must show.

Each op is one session making a small batch of collects (a single
collect is 3-20 ms); ``optimizer.reuse`` is off except in the ``reuse.*``
group.  References are computed by running the same plan
builders against the eager ``repro.workloads.pandas_compat`` module.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

import plans
from harness import Measurement, Op, Outcome, Workload, run_stats, same_result

STRATEGIES = ("serial", "threaded", "fused")
REUSE = {"optimizer__reuse": True, "cache__min_cost": 0.0}


def _prefix(pd, tables: dict, scan: bool):
    if scan:
        trips = pd.scan_csv(tables["big_trips"], partition_bytes=1 << 16)
        zones = pd.scan_csv(tables["big_zones"], partition_bytes=1 << 16)
    else:
        trips = pd.read_csv(tables["big_trips"])
        zones = pd.read_csv(tables["big_zones"])
    joined = trips.merge(zones, on="k", how="inner")
    joined["total"] = joined["fare"] + joined["tip"]
    return joined


def reuse_a(pd, tables: dict, scan: bool = True):
    return _prefix(pd, tables, scan).groupby(["k"])["total"].agg("sum")


def reuse_suffix(joined, i: int):
    """A query of its own (the constant) on the shared joined prefix."""
    return joined[joined["k"] == i].groupby(["k"])["passengers"].agg("count")


class InteractiveSession(Workload):
    name = "interactive_session"

    def __init__(self, harness, seed, quick):
        super().__init__(harness, seed, quick)
        scale = 20 if quick else 1
        self.small_rows = 400
        self.big_rows = 48_000 // scale
        #: distinct plans per shape and strategy, per pass (32 + 3 x 6
        #: + 3 x 17 = 101 collects) ...
        self.counts = {"paper": 32 // scale or 1, "deep": 6 // scale or 1,
                       "wide": 17 // scale or 1}
        #: ... collected in ops of this many: an op is a batch because a
        #: single collect is 3-20 ms, and a batch of 60-150 ms because the
        #: machine's slow moments are additive and come and go within a
        #: second -- the smaller the unit, the likelier one of its
        #: passes ran undisturbed, and best-of-P finds it
        self.batch = {"paper": 8, "deep": 6, "wide": 17}
        #: 3 ops x 25 = 75 re-collects; 4 ops x 10 = 40 explains
        self.recollects = 25 // scale or 1
        self.recollect_ops = 3 // scale or 1
        self.explains = 10 // scale or 1
        self.explain_ops = 4 // scale or 1
        self.validates = 70 // scale or 1
        self.reuse_loops = {"cold": 1, "warm": 60, "prefix": 6}
        self.tables: Dict[str, str] = {}
        self.reference: Dict[tuple, object] = {}

    # -- set-up ----------------------------------------------------------

    def prepare(self, root: str) -> None:
        from repro.frame import DataFrame

        self.root = root
        self.tables = plans.write_small_tables(
            os.path.join(root, "small"), self.small_rows, self.seed)
        rng = np.random.default_rng(self.seed + 1)
        n, keys = self.big_rows, max(2, self.big_rows // 40)
        self.tables["big_trips"] = os.path.join(root, "big_trips.csv")
        DataFrame({
            "k": rng.integers(0, keys, n),
            "fare": np.round(rng.normal(15.0, 10.0, n), 2),
            "tip": np.round(np.abs(rng.normal(2.0, 1.0, n)), 2),
            "passengers": rng.integers(1, 6, n),
        }).to_csv(self.tables["big_trips"])
        self.tables["big_zones"] = os.path.join(root, "big_zones.csv")
        DataFrame({
            "k": np.arange(keys),
            "zone_pop": rng.integers(1000, 99999, keys),
        }).to_csv(self.tables["big_zones"])

    def _plan_ids(self, shape: str, strategy: str) -> range:
        """Distinct ``i`` per (shape, strategy): no two ops share a plan."""
        count = self.counts[shape]
        start = STRATEGIES.index(strategy) * count
        return range(start, start + count)

    def _recollect_ids(self, n: int) -> range:
        """Four paper-shaped plans of their own per ``recollect`` op."""
        return range(1000 + 4 * n, 1004 + 4 * n)

    def _batches(self, shape: str, strategy: str):
        ids = self._plan_ids(shape, strategy)
        size = self.batch[shape]
        return [ids[at:at + size] for at in range(0, len(ids), size)]

    def make_references(self) -> None:
        import repro.workloads.pandas_compat as eager

        for shape, build in plans.SHAPES.items():
            strategies = ("serial",) if shape == "paper" else STRATEGIES
            for strategy in strategies:
                for i in self._plan_ids(shape, strategy):
                    self.reference[shape, i] = build(eager, self.tables, i)
        for n in range(self.recollect_ops):
            for i in self._recollect_ids(n):
                self.reference["paper", i] = plans.paper(eager, self.tables, i)
        self.reference["reuse", "a"] = reuse_a(eager, self.tables, scan=False)
        joined = _prefix(eager, self.tables, scan=False)
        for i in range(self.reuse_loops["prefix"]):
            self.reference["reuse", i] = reuse_suffix(joined, i)

    # -- ops -------------------------------------------------------------

    def build_ops(self) -> List[Op]:
        ops = []
        for shape in ("paper", "deep", "wide"):
            for strategy in ("serial",) if shape == "paper" else STRATEGIES:
                for n, ids in enumerate(self._batches(shape, strategy)):
                    ops.append(Op(
                        f"plan.{shape}.{strategy}.{n}",
                        self._collects(shape, strategy, ids),
                        threaded=strategy == "threaded",
                    ))
        ops += [Op(f"recollect.{n}", self._recollect(n))
                for n in range(self.recollect_ops)]
        ops += [Op(f"explain.{n}", self._explain(n))
                for n in range(self.explain_ops)]
        loops = self.reuse_loops
        ops += [
            # millisecond-sized calls, so looped (fixed counts)
            Op("validate", self._validate,
               loops=max(1, self.validates // self.explains)),
            # cold -> warm -> prefix is one story: cold fills the cache
            # the other two read
            Op("reuse.cold", self._reuse_root(expect_hit=False),
               loops=loops["cold"]),
            Op("reuse.warm", self._reuse_root(expect_hit=True),
               warm=True, loops=loops["warm"]),
            Op("reuse.prefix", self._reuse_prefix, warm=True,
               loops=loops["prefix"]),
        ]
        return ops

    def _collects(self, shape: str, strategy: str, ids: range):
        import repro.lazyfatpandas.pandas as lfp

        build = plans.SHAPES[shape]

        def run(call: int) -> Outcome:
            samples, stats, results = [], [], []
            with self.harness.session(strategy=strategy) as session:
                session.memory.reset_peak()
                for i in ids:
                    started = time.perf_counter()
                    with self.harness.span("core.build", "core"):
                        plan = build(lfp, self.tables, i)
                    results.append(plan.collect())
                    samples.append(time.perf_counter() - started)
                    stats.append(run_stats(session))
                peak, memory = session.memory.peak, session.memory

            def check():
                wrong = [i for i, got in zip(ids, results)
                         if not same_result(got, self.reference[shape, i])]
                if wrong:
                    return (f"{shape} plans {wrong[:5]} differ from the "
                            "eager reference")

            return Outcome(peak_bytes=peak, stats=stats, managers=[memory],
                           samples=samples, check=check)
        return run

    def _recollect(self, n: int):
        import repro.lazyfatpandas.pandas as lfp

        ids = self._recollect_ids(n)

        def run(call: int) -> Outcome:
            with self.harness.session() as session:
                session.memory.reset_peak()
                roots = [plans.paper(lfp, self.tables, i) for i in ids]
                for root in roots:
                    root.collect()
                for k in range(self.recollects):
                    roots[k % len(roots)].collect()
                results = [root.collect() for root in roots]
                peak, memory = session.memory.peak, session.memory
                stats = [run_stats(session)]

            def check():
                wrong = [i for i, got in zip(ids, results)
                         if not same_result(got, self.reference["paper", i])]
                if wrong:
                    return f"re-collected plans {wrong} differ"

            return Outcome(peak_bytes=peak, managers=[memory], stats=stats,
                           check=check)
        return run

    def _mixed_plans(self, lfp, offset: int = 0):
        shapes = list(plans.SHAPES.items())
        for k in range(self.explains):
            shape, build = shapes[k % len(shapes)]
            with self.harness.span("core.build", "core"):
                plan = build(lfp, self.tables, offset + k)
            yield plan

    def _explain(self, n: int):
        import repro.lazyfatpandas.pandas as lfp

        def run(call: int) -> Outcome:
            with self.harness.session() as session:
                texts = [plan.explain() for plan in self._mixed_plans(
                    lfp, offset=n * self.explains)]
                memory = session.memory

            def check():
                bad = sum("== raw plan ==" not in text
                          or "== optimized plan ==" not in text
                          for text in texts)
                if bad:
                    return f"{bad} explain() outputs malformed"

            return Outcome(managers=[memory], check=check)
        return run

    def _validate(self, call: int) -> Outcome:
        import repro.lazyfatpandas.pandas as lfp

        with self.harness.session() as session:
            # every plan here is well-formed: the eager engine ran it
            findings = sum(len(plan.validate())
                           for plan in self._mixed_plans(lfp))
            memory = session.memory
        return Outcome(
            managers=[memory],
            check=lambda: f"{findings} diagnostics on correct plans"
            if findings else None)

    def _reuse_collect(self, build):
        """Collect ``build(lfp)`` in a fresh session with reuse on."""
        import repro.lazyfatpandas.pandas as lfp

        with self.harness.session(**REUSE) as session:
            session.memory.reset_peak()
            got = build(lfp).collect()
            stats = run_stats(session)
            return got, stats, session.memory.peak, session.memory

    def _reuse_root(self, expect_hit: bool):
        from repro.cache.result_cache import result_cache

        def run(call: int) -> Outcome:
            if not expect_hit:
                result_cache().clear()  # cold on every call
            got, stats, peak, memory = self._reuse_collect(
                lambda lfp: reuse_a(lfp, self.tables))

            def check():
                if not same_result(got, self.reference["reuse", "a"]):
                    return "reuse plan differs from the eager reference"
                if bool(stats["cache_bytes_reused"]) != expect_hit:
                    return (f"reuse plan: expected "
                            f"{'a hit' if expect_hit else 'a cold cache'}, "
                            f"reused {stats['cache_bytes_reused']} bytes")
                if expect_hit and stats["nodes_executed"] != 1:
                    return (f"warm identical plan executed "
                            f"{stats['nodes_executed']} nodes, not 1")

            return Outcome(peak_bytes=peak, stats=[stats], managers=[memory],
                           check=check)
        return run

    def _reuse_prefix(self, call: int) -> Outcome:
        """A suffix the cache has never seen (every call of a pass has
        its own constant, and ``reuse.cold`` empties the cache before
        the next pass) on the scan + merge prefix ``reuse.cold`` left."""
        got, stats, peak, memory = self._reuse_collect(
            lambda lfp: reuse_suffix(_prefix(lfp, self.tables, True), call))

        def check():
            if not same_result(got, self.reference["reuse", call]):
                return f"suffix {call} differs from the eager reference"
            if not stats["cache_bytes_reused"]:
                return f"suffix {call}: the shared prefix was not reused"
            if stats["nodes_executed"] < 2:
                return (f"suffix {call}: a root hit, not a new suffix on "
                        "a cached prefix")

        return Outcome(peak_bytes=peak, stats=[stats], managers=[memory],
                       check=check)

    # -- reporting -------------------------------------------------------

    def input_paths(self) -> List[str]:
        return sorted(self.tables.values())

    def probe_inputs(self) -> dict:
        return {"csv": self.tables["big_trips"], "key": "k",
                "value": "fare"}

    def layer_metrics(self, m: Measurement) -> Dict[str, float]:
        by_name = {r.op.name: r for r in m.records}
        samples = sorted(
            s for r in m.records if r.op.name.startswith("plan.")
            for s in r.samples
        )
        out = {
            "core.collect_p50_ms": 1e3 * _quantile(samples, 0.50),
            "core.collect_p90_ms": 1e3 * _quantile(samples, 0.90),
            "core.collect_samples": len(samples),
            "cache.warm_speedup":
                (by_name["reuse.cold"].best / by_name["reuse.cold"].op.loops)
                / (by_name["reuse.warm"].best / by_name["reuse.warm"].op.loops),
        }
        # collect wall minus what the scheduler accounted for: graph
        # build, analysis gate, optimize, snapshot/restore
        out["core.collect_overhead_s"] = sum(samples) - m.stat_sum(
            "wall_seconds", "plan.")
        for strategy in STRATEGIES:
            out[f"graph.scheduler.{strategy}.wall_s"] = sum(
                r.best for r in m.records
                if r.op.name.startswith((f"plan.deep.{strategy}.",
                                         f"plan.wide.{strategy}.")))
        return out


def _quantile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
