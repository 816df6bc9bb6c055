"""``paper_programs``: the paper's own experiment (Figs. 12-15).

The ten programs of ``repro.workloads.programs`` through ``Runner.run``
in the three LaFP modes.  Execution dominates here -- the fixed per-cell
cost (JIT rewrite, graph build, optimize) is about 10 ms of 20-90 ms --
so ``frame``, CSV parsing and the backends do most of the work and the
planning layers almost none: a planner change must leave this workload
alone, a faster kernel must move it.

References are the result digests of one ``pandas``-mode pass (the eager
``repro.frame`` engine running the unmodified program).  The ``dask`` /
``modin`` *baseline* modes are simulators, not the system under test,
and are left out.

``dso`` x ``lafp_dask`` raises ``KeyError: ['service']`` at every size
tried.  The cell stays in the pass and is listed in
``bench/known_failures.json``, so ``ok_op_share`` reads 29/30 until a
fix makes it rise.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

from repro.frame import read_csv
from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import Runner

from harness import (
    MAX_WORKERS, Measurement, Op, Outcome, Workload, run_stats, same_result,
)

MODES = ("lafp_pandas", "lafp_modin", "lafp_dask")
#: ``save_result`` rounds floats to 3 decimals before writing.
RESULT_ATOL = 1.5e-3


class BenchRunner(Runner):
    """Remembers each cell's session so the harness can check what the
    cell left behind (``RunResult`` does not carry it)."""

    last_session = None

    def _make_session(self, mode):
        self.last_session = super()._make_session(mode)
        return self.last_session


class PaperPrograms(Workload):
    name = "paper_programs"

    def __init__(self, harness, seed, quick):
        super().__init__(harness, seed, quick)
        self.base_rows = 400 if quick else 6_000
        self.runner = None
        #: program -> (digest, frame) of the pandas-mode saved result.
        self.reference: Dict[str, tuple] = {}
        self.baseline: Dict[str, object] = {}

    # -- set-up ----------------------------------------------------------

    def prepare(self, root: str) -> None:
        self.root = root
        self.runner = BenchRunner(
            workdir=root, base_rows=self.base_rows, enforce_budget=True)
        # datasets + metastore statistics
        self.runner.prepare(["S"], programs=sorted(PROGRAMS))

    def _result_csv(self, program: str, mode: str) -> str:
        return os.path.join(self.root, "results", program, mode, "S",
                            f"{program}.csv")

    def make_references(self) -> None:
        for program in sorted(PROGRAMS):
            result = self.runner.run(program, "pandas")
            if not result.ok or result.result_hash is None:
                raise RuntimeError(
                    f"reference pass failed on {program}: {result.error}")
            self.reference[program] = (
                result.result_hash,
                read_csv(self._result_csv(program, "pandas")))
            self.baseline[program] = result

    def build_ops(self) -> List[Op]:
        return [
            Op(f"{program}.{mode}", self._cell(program, mode))
            for program in sorted(PROGRAMS) for mode in MODES
        ]

    def _cell(self, program: str, mode: str):
        def run(call: int) -> Outcome:
            with self.harness.span("workloads.runner.run", "workloads"):
                result = self.runner.run(program, mode, options={
                    "memory.spill_dir": self.harness.spill_dir,
                    "executor.max_workers": MAX_WORKERS,
                })
            session, self.runner.last_session = self.runner.last_session, None
            stats = []
            if result.ok and result.execution_stats:
                stats.append(dict(
                    result.execution_stats,
                    optimizer_rewrites=run_stats(session)["optimizer_rewrites"],
                ))

            def check():
                digest, frame = self.reference[program]
                if not result.ok:
                    return result.error
                if result.result_hash == digest:
                    return None
                # saved results round to 3 decimals, so a sum that
                # associates differently can flip the last digit
                got = read_csv(self._result_csv(program, mode))
                if not same_result(got, frame, atol=RESULT_ATOL):
                    return (f"saved result differs from the pandas-mode "
                            f"reference (digest {result.result_hash})")

            return Outcome(peak_bytes=result.peak_bytes, stats=stats,
                           managers=[session.memory], check=check)
        return run

    def input_paths(self) -> List[str]:
        data_dir = self.runner.data_dir("S")
        return [os.path.join(data_dir, f) for f in sorted(os.listdir(data_dir))]

    def probe_inputs(self) -> dict:
        return {"csv": os.path.join(self.runner.data_dir("S"), "taxi.csv"),
                "key": "passenger_count", "value": "fare_amount"}

    # -- per-layer -------------------------------------------------------

    def layer_metrics(self, m: Measurement) -> Dict[str, float]:
        out = {}
        for mode in MODES:
            engine = mode.split("_")[1]
            out[f"backends.{engine}.wall_s"] = sum(
                r.best for r in m.records if r.op.name.endswith("." + mode))
        baseline_s = sum(r.seconds for r in self.baseline.values())
        out["workloads.baseline_pandas_s"] = baseline_s
        speedups, peak_ratios = [], []
        for record in m.records:
            if record.failed:
                continue
            base = self.baseline[record.op.name.split(".")[0]]
            speedups.append(base.seconds / record.best)
            if max(record.peaks) > 0 and base.peak_bytes > 0:
                peak_ratios.append(max(record.peaks) / base.peak_bytes)
        out["workloads.speedup_vs_pandas"] = _geomean(speedups)
        out["workloads.peak_ratio_vs_pandas"] = _geomean(peak_ratios)
        return out

    def close(self) -> None:
        if self.runner is not None:
            self.runner.cleanup()


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
