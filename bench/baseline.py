"""Make one *set* of runs: every workload, several runs, one JSON file.

    python3 bench/baseline.py OUT.json [--runs 5] [--seed 0] [--vary-seed]
                              [--seconds 18] [--workloads NAME ...]

Each run is one fresh ``bench/run.py`` process, and every run of a set
uses the same seed: the inputs are the same, so ``peak_bytes``,
``ok_op_share`` and the exact counts must repeat exactly and what the
times spread by is the machine's alone.  ``--vary-seed`` gives run ``i``
the seed ``seed + i`` instead, which is how the benchmark's driver
samples it.  Two sets of the same commit, compared with
``bench/compare.py``, say how far the benchmark agrees with itself; a
set from a parent and a set from a change say whether the change
regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from run import OUT_DIR, WORKLOADS  # noqa: E402

#: what a set keeps of each run's ``--out`` report.
KEPT = ("workload", "seed", "passes", "pass_seconds", "python", "numpy",
        "nproc", "attempted", "failed", "end_to_end", "wall_median_s",
        "wall_max_s", "exact_counts", "setup", "input_sha256")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    handle, report_path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    os.close(handle)
    try:
        subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--out", report_path],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(report_path) as f:
            report = json.load(f)
    finally:
        os.unlink(report_path)
    return {key: report[key] for key in KEPT}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i (the driver's sampling)")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    runs = []
    # workload by workload within each round, so an hour in which the
    # machine is slow is spread over all of them
    for index in range(args.runs):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in args.workloads:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v:.6g}" for k, v in runs[-1]["end_to_end"].items()),
                flush=True)
    with open(args.out, "w") as f:
        json.dump({"seconds": args.seconds, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
