"""Compare two sets of runs made by ``bench/baseline.py``.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, quartiles and
run counts, the change in the metric's *worse* direction as a share of
A's median, and the bound ``BENCHMARK.json`` fixes for it:

- ``regression`` -- B's median is worse than A's by more than the bound,
- ``unresolved`` -- the run-to-run spread of a side (the distance
  between its quartiles) is wider than the bound, so the row decides
  nothing -- unless every run of B reads better than every run of A,
- ``ok`` otherwise.

``spread`` is the wider of the two sides' quartile distances, as a
share of that side's median.  What must repeat exactly -- ``peak_bytes``,
``ok_op_share`` and the counts (bytes read, bytes spilled, nodes
executed, optimizer rewrites) -- is diffed between all runs of both sets
that had the same inputs, not compared by median.  Exits 1 on any
regression or difference.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> Dict[str, dict]:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def by_workload(path: str) -> Dict[str, List[dict]]:
    with open(path) as f:
        runs = json.load(f)["runs"]
    out: Dict[str, List[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], spec: dict) -> dict:
    """The row for one metric on one workload."""
    lower = spec["better"] == "lower"
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a if lower else med_a - med_b) / abs(med_a)
    spread = max((qa[2] - qa[0]) / abs(med_a), (qb[2] - qb[0]) / abs(med_b))
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if spread > spec["bound"] and not all_better:
        word = "unresolved"
    elif worse_by > spec["bound"]:
        word = "regression"
    else:
        word = "ok"
    return {"median_a": med_a, "median_b": med_b, "quartiles_a": qa,
            "quartiles_b": qb, "n_a": len(a), "n_b": len(b),
            "worse_by": worse_by, "spread": spread, "verdict": word}


def exact_differences(runs: List[dict]) -> List[str]:
    """What differs between runs that measured the same inputs."""
    out = []
    first_by_inputs: Dict[str, dict] = {}
    for run in runs:
        first = first_by_inputs.setdefault(
            json.dumps(run["input_sha256"], sort_keys=True), run)
        exact, first_exact = ({
            **r["exact_counts"],
            "peak_bytes": r["end_to_end"]["peak_bytes"],
            "ok_op_share": r["end_to_end"]["ok_op_share"],
        } for r in (run, first))
        out += [f"seed {run['seed']} {name}: {first_exact.get(name)} -> "
                f"{value}" for name, value in exact.items()
                if first_exact.get(name) != value]
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    bounds = load_bounds()
    set_a, set_b = by_workload(argv[0]), by_workload(argv[1])
    failed = False
    print(f"{'workload':<20} {'metric':<12} {'A median [q1,q3] n':<36} "
          f"{'B median [q1,q3] n':<36} {'worse by':>9} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(set_a) & set(set_b)):
        for name, spec in bounds.items():
            row = verdict(
                [r["end_to_end"][name] for r in set_a[workload]],
                [r["end_to_end"][name] for r in set_b[workload]], spec)
            failed |= row["verdict"] == "regression"

            def side(key):
                q = row[f"quartiles_{key}"]
                return (f"{row[f'median_{key}']:.6g} [{q[0]:.6g},{q[2]:.6g}]"
                        f" {row[f'n_{key}']}")

            print(f"{workload:<20} {name:<12} {side('a'):<36} "
                  f"{side('b'):<36} {row['worse_by']:>+9.2%} "
                  f"{row['spread']:>7.2%} {spec['bound']:>6.2%}  "
                  f"{row['verdict']}")
        for line in exact_differences(set_a[workload] + set_b[workload]):
            failed = True
            print(f"{workload:<20} differs on the same inputs: {line}")
    for workload in sorted(set(set_a) ^ set(set_b)):
        print(f"{workload:<20} only in one set: not compared")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
