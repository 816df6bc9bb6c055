"""``scan_formats``: one table stored four ways, read, written, remote.

One 9-column table is stored as csv / jsonl / hive dataset / ``.lfc``.
Per pass: three queries per format (a selective range filter with a
2-column projection, a partition-key equality, a full-scan
``groupby.sum``), the four writers as timed ops, and a ``memory://``
``.lfc`` scan at 5 ms per range read under serial-no-prefetch and
threaded-prefetch.  The ``io`` sources do most of the work and the same
layer is used three ways -- read, write, remote -- so a faster decoder
that costs the encoder, or a prefetch change that costs local scans,
shows here and nowhere else.

References come from the eager ``repro.frame`` engine over the in-memory
table; a writer's output must be byte-identical to the set-up's copy.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List

import numpy as np

from harness import (
    Measurement, Op, Outcome, Workload, path_digest, run_stats, same_result,
)

FORMATS = ("csv", "jsonl", "dataset", "columnar")
N_REGIONS = 8
N_ROW_GROUPS = 8
REMOTE_LATENCY_SECONDS = 0.005
#: the pruned and the columnar reads take 1-30 ms a call: looped (fixed
#: counts) until the op is about 50 ms.
READ_LOOPS = {
    ("csv", "selective"): 4, ("jsonl", "selective"): 4,
    ("dataset", "selective"): 2, ("dataset", "key_eq"): 8,
    ("columnar", "selective"): 50, ("columnar", "key_eq"): 20,
    ("columnar", "groupby"): 18,
}


class ScanFormats(Workload):
    name = "scan_formats"

    def __init__(self, harness, seed, quick):
        super().__init__(harness, seed, quick)
        self.rows = 1_000 if quick else 16_000
        self.frame = None
        self.paths: Dict[str, str] = {}
        self.url = ""
        self.metastore = None
        self.reference: Dict[str, object] = {}
        self.written_sha: Dict[str, str] = {}

    # -- set-up ----------------------------------------------------------

    def _table(self):
        from repro.frame import DataFrame

        rng = np.random.default_rng(self.seed)
        n = self.rows
        columns = {
            "id": np.arange(n, dtype=np.int64),
            "region": rng.integers(0, N_REGIONS, n),
            "value": np.round(rng.normal(50, 20, n), 2),
            "qty": rng.integers(1, 100, n),
            "price": np.round(rng.uniform(1, 500, n), 2),
        }
        for i in range(4):
            columns[f"pad_{i}"] = np.array(
                [f"p{i}-{j:08d}-{'x' * 24}" for j in range(n)], dtype=object)
        return DataFrame(columns)

    def prepare(self, root: str) -> None:
        from repro.frame.io_csv import scan_partitions
        from repro.io import (
            DatasetSource, JsonlSource, memory_store, write_columnar,
            write_dataset, write_jsonl,
        )
        from repro.io.csv_source import CsvSource
        from repro.metastore import MetaStore

        self.root = root
        os.makedirs(root, exist_ok=True)
        self.frame = frame = self._table()
        self.paths = {
            "csv": os.path.join(root, "t.csv"),
            "jsonl": os.path.join(root, "t.jsonl"),
            "dataset": os.path.join(root, "t_hive"),
            "columnar": os.path.join(root, "t.lfc"),
        }
        group_rows = max(1, self.rows // N_ROW_GROUPS)
        frame.to_csv(self.paths["csv"])
        write_jsonl(frame, self.paths["jsonl"])
        write_dataset(frame, self.paths["dataset"], partition_on="region")
        write_columnar(frame, self.paths["columnar"],
                       row_group_rows=group_rows)
        self.url = f"memory://bench-{self.seed}/t.lfc"
        memory_store().latency = 0.0
        write_columnar(frame, self.url, row_group_rows=group_rows)
        self.group_rows = group_rows

        # exact per-partition statistics: what makes pruning a proof
        self.metastore = store = MetaStore(os.path.join(root, "metastore"))
        store.compute_and_store(
            self.paths["csv"], sample_rows=None, partition_ranges=[
                p.byte_range for p in CsvSource(
                    self.paths["csv"],
                    partition_bytes=self._partition_bytes("csv"),
                ).partitions()])
        store.compute_and_store(
            self.paths["jsonl"], sample_rows=None, fmt="jsonl",
            partition_ranges=[
                p.byte_range for p in JsonlSource(
                    self.paths["jsonl"],
                    partition_bytes=self._partition_bytes("jsonl"),
                ).partitions()])
        for leaf in DatasetSource(self.paths["dataset"]).leaves():
            ranges = [tuple(r) for r in scan_partitions(leaf["path"], 2)]
            store.compute_and_store(leaf["path"], sample_rows=None,
                                    partition_ranges=ranges or None)

    def _partition_bytes(self, fmt: str) -> int:
        return max(4096, os.path.getsize(self.paths[fmt]) // N_ROW_GROUPS)

    def _scan(self, pd, fmt: str):
        if fmt == "csv":
            return pd.scan_csv(self.paths["csv"],
                               partition_bytes=self._partition_bytes("csv"))
        if fmt == "jsonl":
            return pd.scan_jsonl(
                self.paths["jsonl"],
                partition_bytes=self._partition_bytes("jsonl"))
        if fmt == "dataset":
            return pd.scan_dataset(self.paths["dataset"])
        return pd.scan_columnar(self.paths["columnar"])

    def _queries(self) -> dict:
        cutoff = self.rows - self.rows // N_ROW_GROUPS
        return {
            "selective": lambda t: t[t["id"] >= cutoff][["id", "value"]],
            "key_eq": lambda t: t[t["region"] == 3][["id", "qty"]],
            "groupby": lambda t: t.groupby("region")["value"].agg("sum"),
        }

    def make_references(self) -> None:
        for name, query in self._queries().items():
            self.reference[name] = query(self.frame)
        self.written_sha = {fmt: path_digest(path)
                            for fmt, path in self.paths.items()}

    # -- ops -------------------------------------------------------------

    def build_ops(self) -> List[Op]:
        ops = [
            Op(f"read.{fmt}.{name}", self._read(fmt, name),
               loops=READ_LOOPS.get((fmt, name), 1))
            for fmt in FORMATS for name in self._queries()
        ]
        ops += [Op(f"write.{fmt}", self._write(fmt),
                   loops=2 if fmt == "columnar" else 1) for fmt in FORMATS]
        ops += [
            Op("remote.serial", self._remote("serial", prefetch=False)),
            Op("remote.prefetch", self._remote("threaded", prefetch=True),
               threaded=True, loops=3),
        ]
        return ops

    def _read(self, fmt: str, name: str):
        import repro.lazyfatpandas.pandas as lfp

        query = self._queries()[name]

        def run(call: int) -> Outcome:
            with self.harness.session(metastore=self.metastore) as session:
                session.memory.reset_peak()
                got = query(self._scan(lfp, fmt)).collect()
                stats = run_stats(session)
                peak, memory = session.memory.peak, session.memory

            def check():
                want = self.reference[name]
                if fmt == "dataset" and name != "groupby":
                    # leaves are read key by key: same rows, other order
                    order = np.argsort(got.column("id").to_array(),
                                       kind="stable")
                    return None if same_result(got.take(order), want) else (
                        f"{fmt} {name} differs from the eager reference")
                if not same_result(got, want):
                    return f"{fmt} {name} differs from the eager reference"

            return Outcome(peak_bytes=peak, stats=[stats], managers=[memory],
                           check=check)
        return run

    def _write(self, fmt: str):
        from repro.io import write_columnar, write_dataset, write_jsonl

        target = os.path.join(self.root, "rewrite",
                              os.path.basename(self.paths[fmt]))

        def run(call: int) -> Outcome:
            shutil.rmtree(os.path.dirname(target), ignore_errors=True)
            os.makedirs(os.path.dirname(target))
            with self.harness.span(f"io.{fmt}.write", "io"):
                if fmt == "csv":
                    self.frame.to_csv(target)
                elif fmt == "jsonl":
                    write_jsonl(self.frame, target)
                elif fmt == "dataset":
                    write_dataset(self.frame, target, partition_on="region")
                else:
                    write_columnar(self.frame, target,
                                   row_group_rows=self.group_rows)

            def check():
                if not os.path.exists(target):
                    return None  # a looped op's calls share the file: checked
                sha = path_digest(target)
                shutil.rmtree(os.path.dirname(target), ignore_errors=True)
                if sha != self.written_sha[fmt]:
                    return f"{fmt} writer output differs from the set-up's"

            return Outcome(check=check)
        return run

    def _remote(self, strategy: str, prefetch: bool):
        import repro.lazyfatpandas.pandas as lfp
        from repro.io import memory_store

        def run(call: int) -> Outcome:
            store = memory_store()
            store.latency = REMOTE_LATENCY_SECONDS
            try:
                with self.harness.session(
                        strategy=strategy, io__prefetch=prefetch) as session:
                    session.memory.reset_peak()
                    got = lfp.scan_columnar(self.url)[["id", "value"]].collect()
                    stats = run_stats(session)
                    peak, memory = session.memory.peak, session.memory
            finally:
                store.latency = 0.0

            def check():
                if not same_result(got, self.frame[["id", "value"]]):
                    return "remote scan differs from the table"
                if bool(stats["prefetch_hits"]) != prefetch:
                    return (f"prefetch={prefetch} but "
                            f"{stats['prefetch_hits']} prefetch hits")

            return Outcome(peak_bytes=peak, stats=[stats], managers=[memory],
                           check=check)
        return run

    # -- reporting -------------------------------------------------------

    def input_paths(self) -> List[str]:
        return [self.paths[fmt] for fmt in FORMATS]

    def probe_inputs(self) -> dict:
        return {"csv": self.paths["csv"], "key": "region", "value": "value"}

    def layer_metrics(self, m: Measurement) -> Dict[str, float]:
        by_name = {r.op.name: r for r in m.records}
        return {
            "io.remote.serial_s": by_name["remote.serial"].best,
            "io.remote.prefetch_s": by_name["remote.prefetch"].best
            / by_name["remote.prefetch"].op.loops,
        }

    def close(self) -> None:
        from repro.io import memory_store

        memory_store().reset()
