"""``out_of_core``: joins and group-bys that do not fit the budget.

A fact table ``k,v,s`` is joined to a dimension a quarter its size whose
keys mostly miss, and grouped (``nunique``, holistic; ``sum``,
decomposable).  Every query runs twice: unbudgeted in memory, and with
``memory.budget`` pinned to half the fact table's in-memory bytes and
``optimizer.shuffle_threshold_bytes = 100`` so the plan is lowered to
hash-partition -> spill -> stream (into :data:`SHUFFLE_BUCKETS`
buckets).  ``io.spill`` (bucket writes beside reads),
``backends.shuffle_ops`` and ``memory`` do most of the work in the
budgeted ops and none in their in-memory twins, so a spill-format change
must move the first and leave the second alone.  A join against a
10-row right side takes the broadcast path instead of shuffling.

References come from the eager ``repro.frame`` engine.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from harness import Measurement, Op, Outcome, Workload, run_stats, same_result

N_PARTITIONS = 12
#: buckets of every lowered plan.  A spilled chunk is a file created and
#: deleted, and ext4 charges a creation by the number of inodes deleted
#: in the last 5 s (it skips them when it allocates): at the 64 buckets
#: the tiny threshold alone would give, an op made ~260 files and read
#: 140 or 220 ms depending on what the passes before it had deleted.
SHUFFLE_BUCKETS = 16


class OutOfCore(Workload):
    name = "out_of_core"

    def __init__(self, harness, seed, quick):
        super().__init__(harness, seed, quick)
        self.fact_rows = 1_200 if quick else 60_000
        self.paths: Dict[str, str] = {}
        self.reference: Dict[str, object] = {}
        self.budget = 0
        self.partition_bytes = 0

    # -- set-up ----------------------------------------------------------

    def prepare(self, root: str) -> None:
        from repro.frame import DataFrame

        self.root = root
        os.makedirs(root, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        n = self.fact_rows
        keys = max(40, n // 60)
        self.paths = {name: os.path.join(root, f"{name}.csv")
                      for name in ("fact", "dim", "tiny")}
        DataFrame({
            "k": rng.integers(0, keys, n),
            "v": np.arange(n),
            "s": np.array([f"s{c}-{'x' * 16}" for c in rng.integers(0, 7, n)],
                          dtype=object),
        }).to_csv(self.paths["fact"])
        # a quarter of the fact table's size; one key in ten hits
        dim_rows = n // 4
        hits = np.arange(0, keys, 10)
        misses = 10 * keys + np.arange(dim_rows - len(hits))
        dim_keys = rng.permutation(np.concatenate([hits, misses]))
        DataFrame({"k": dim_keys, "w": rng.integers(0, 1000, dim_rows)}
                  ).to_csv(self.paths["dim"])
        DataFrame({"k": np.arange(0, 20, 2), "w": np.arange(10) * 10}
                  ).to_csv(self.paths["tiny"])
        self.partition_bytes = max(
            2048, os.path.getsize(self.paths["fact"]) // N_PARTITIONS)

    def make_references(self) -> None:
        import repro.workloads.pandas_compat as eager

        fact = eager.read_csv(self.paths["fact"])
        # "does not fit": the budget is half the table's in-memory size
        self.budget = max(fact.nbytes // 2, 90_000)
        for name, build in self._queries().items():
            self.reference[name] = build(eager, scan=False)

    def _queries(self) -> dict:
        paths, partition_bytes = self.paths, self.partition_bytes

        def table(pd, name, scan, small=False):
            if not scan:
                return pd.read_csv(paths[name])
            return pd.scan_csv(
                paths[name],
                partition_bytes=512 if small else partition_bytes)

        return {
            "join": lambda pd, scan=True: table(pd, "fact", scan).merge(
                table(pd, "dim", scan), on="k", how="inner"),
            "nunique": lambda pd, scan=True: table(
                pd, "fact", scan).groupby("k")["s"].agg("nunique"),
            "sum": lambda pd, scan=True: table(
                pd, "fact", scan).groupby("k")["v"].agg("sum"),
            "broadcast": lambda pd, scan=True: table(pd, "fact", scan).merge(
                table(pd, "tiny", scan, small=True), on="k", how="inner"),
        }

    # -- ops -------------------------------------------------------------

    def build_ops(self) -> List[Op]:
        budgeted = {"memory__budget": self.budget,
                    "optimizer__shuffle_threshold_bytes": 100,
                    "optimizer__shuffle_partitions": SHUFFLE_BUCKETS}
        ops = []
        for query in ("join", "nunique", "sum"):
            ops.append(Op(f"{query}.inmem", self._collect(query, "serial")))
            for strategy in ("serial", "threaded"):
                ops.append(Op(
                    f"{query}.shuffle.{strategy}",
                    self._collect(query, strategy, out_of_core=True, **budgeted),
                    threaded=strategy == "threaded",
                ))
        ops.append(Op("broadcast.inmem", self._collect("broadcast", "serial")))
        ops.append(Op("broadcast.stream", self._collect(
            "broadcast", "serial", broadcasts=True,
            optimizer__shuffle_threshold_bytes=2000)))
        return ops

    def _collect(self, query: str, strategy: str, out_of_core: bool = False,
                 broadcasts: bool = False, **options):
        import repro.lazyfatpandas.pandas as lfp

        build = self._queries()[query]

        def run(call: int) -> Outcome:
            with self.harness.session(strategy=strategy, **options) as session:
                session.memory.reset_peak()
                got = build(lfp).collect()
                stats = run_stats(session)
                peak, memory = session.memory.peak, session.memory

            def check():
                # decomposable aggregates lower to partial_agg/combine_agg
                # and never open a shuffle store
                lowered = stats["shuffle_partitions"] or any(
                    node["op"] == "partial_agg" for node in stats["nodes"])
                if not same_result(got, self.reference[query]):
                    return f"{query} differs from the eager reference"
                if broadcasts and stats["broadcast_joins"] != 1:
                    return f"{query} did not take the broadcast path"
                if out_of_core and not lowered:
                    return f"{query} was not lowered under the budget"
                if not (out_of_core or broadcasts) and lowered:
                    return f"{query} was lowered without a budget"

            return Outcome(peak_bytes=peak, stats=[stats], managers=[memory],
                           check=check)
        return run

    # -- reporting -------------------------------------------------------

    def input_paths(self) -> List[str]:
        return sorted(self.paths.values())

    def probe_inputs(self) -> dict:
        return {"csv": self.paths["fact"], "key": "k", "value": "v"}

    def layer_metrics(self, m: Measurement) -> Dict[str, float]:
        shuffled = m.group_seconds("join.shuffle") \
            + m.group_seconds("nunique.shuffle") \
            + m.group_seconds("sum.shuffle")
        # each in-memory twin is compared with both strategies' runs
        inmem = 2 * sum(m.group_seconds(f"{q}.inmem")
                        for q in ("join", "nunique", "sum"))
        return {
            "backends.shuffle.join_s": m.group_seconds("join.shuffle"),
            "backends.shuffle.groupby_s": m.group_seconds("nunique.shuffle")
            + m.group_seconds("sum.shuffle"),
            "backends.shuffle.broadcast_s": m.group_seconds(
                "broadcast.stream"),
            "backends.shuffle.vs_inmem_ratio": shuffled / inmem,
        }
