#!/usr/bin/env python
"""Micro-benchmark of the out-of-core data path, before and after.

Five probes over the ``out_of_core`` workload's fact table shape
(``k,v,s``: a duplicate-heavy int key, a row number, a 7-value string):

- ``read_csv`` at three projections (all columns, ``k,v``, ``k``), and
  of all columns with ``s`` as ``category``,
- a filtered scan: ``CsvSource.read_partition`` of the whole table into
  ``k,v`` with a 1-in-7 predicate on ``s``, timed and with its tracked
  peak (``scan.predicate_peak_bytes``, the same every time),
- ``merge`` of the fact table with a dimension a quarter its size whose
  keys mostly miss, ``inner`` and ``outer``,
- ``groupby(k)[s].nunique()``,
- a ``ShuffleStore`` over 16 buckets: spill everything, drain everything
  (and how many files the spill made).

Each probe is timed ``--repeats`` times (at least 7 unless ``--quick``)
per round and reported as median and quartiles in milliseconds.  Only
the stdlib and numpy are used, and only names both sides of a comparison
have: ``read_csv``, ``CsvSource``, ``merge``, ``DataFrame.groupby`` and
``ShuffleStore``.

    python tools/bench_datapath.py --quick            # this checkout, printed
    python tools/bench_datapath.py --parent-rev REV   # writes BENCH_datapath.json

With ``--parent-rev`` (or ``--parent-src`` naming an existing checkout's
``src``) the probes run in fresh processes against the parent's source
and this checkout's, rounds alternating which goes first, and the result
is written with a ``parent`` and a ``change`` block.  The parent's tree
comes from ``git archive`` into a temporary directory, so no worktree is
registered with the repository.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUCKETS = 16


def write_tables(directory: str, rows: int, seed: int) -> dict:
    """The fact and dimension tables, written as ``to_csv`` writes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    keys = max(40, rows // 60)
    paths = {name: os.path.join(directory, f"{name}.csv")
             for name in ("fact", "dim")}
    with open(paths["fact"], "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "v", "s"])
        writer.writerows(zip(
            rng.integers(0, keys, rows).tolist(),
            range(rows),
            (f"s{c}-{'x' * 16}" for c in rng.integers(0, 7, rows).tolist()),
        ))
    dim_rows = rows // 4
    hits = np.arange(0, keys, 10)
    misses = 10 * keys + np.arange(dim_rows - len(hits))
    with open(paths["dim"], "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "w"])
        writer.writerows(zip(
            rng.permutation(np.concatenate([hits, misses])).tolist(),
            rng.integers(0, 1000, dim_rows).tolist(),
        ))
    return paths


def timed(call, repeats: int, setup=lambda: None) -> list:
    """Milliseconds of ``call(setup())``, ``repeats`` times after one
    untimed call (imports, allocator and page cache warm)."""
    samples = []
    for _ in range(repeats + 1):
        arg = setup()
        started = time.perf_counter()
        call(arg)
        samples.append((time.perf_counter() - started) * 1e3)
    return samples[1:]


def run_probes(directory: str, rows: int, repeats: int, seed: int) -> dict:
    """Probe name -> samples (ms), against whatever ``repro`` imports."""
    import numpy as np

    from repro.frame import DataFrame, merge, read_csv
    from repro.io.csv_source import CsvSource
    from repro.io.predicate import Predicate
    from repro.io.spill import ShuffleStore
    from repro.memory.manager import current_memory_manager

    paths = write_tables(directory, rows, seed)
    out = {}
    for label, usecols in (("full", None), ("k_v", ["k", "v"]), ("k", ["k"])):
        out[f"read_csv.{label}_ms"] = timed(
            lambda _: read_csv(paths["fact"], usecols=usecols), repeats)
    out["read_csv.category_ms"] = timed(
        lambda _: read_csv(paths["fact"], dtype={"s": "category"}), repeats)

    source = CsvSource(paths["fact"], partition_bytes=1 << 40)
    (part,) = source.partitions()
    one_in_seven = Predicate([{"column": "s", "op": "==",
                               "value": f"s3-{'x' * 16}"}])
    manager = current_memory_manager()
    peaks = []

    def filtered_scan(_):
        before = manager.live
        manager.reset_peak()
        source.read_partition(part, columns=["k", "v"], predicate=one_in_seven)
        peaks.append(manager.peak - before)

    out["scan.predicate_ms"] = timed(filtered_scan, repeats)
    out["scan.predicate_peak_bytes"] = peaks
    fact, dim = read_csv(paths["fact"]), read_csv(paths["dim"])
    for how in ("inner", "outer"):
        out[f"merge.{how}_ms"] = timed(
            lambda _: merge(fact, dim, on="k", how=how), repeats)
    out["groupby.nunique_ms"] = timed(
        lambda _: fact.groupby("k")["s"].nunique(), repeats)

    spill_dir = os.path.join(directory, "spill")
    bucket_of = fact.column("k").values % BUCKETS
    pieces = [
        (b, np.flatnonzero((bucket_of == b) & (np.arange(len(fact)) % 6 == c)))
        for b in range(BUCKETS) for c in range(6)
    ]
    files_made = []

    def filled():
        # chunks that own their strings, as the shuffle's split makes
        # them: the pickle then carries the payload's byte count
        store = ShuffleStore(BUCKETS, spill_dir=spill_dir)
        store.set_template(fact)
        for bucket, idx in pieces:
            store.append(bucket, DataFrame({
                name: fact.column(name).values[idx] for name in fact.columns
            }))
        return store

    def spill_and_drain(store):
        store.spill_all()
        files_made.append(sum(
            len(names) for _dir, _dirs, names in os.walk(spill_dir)))
        for bucket in range(BUCKETS):
            store.read_bucket(bucket)
        store.close()

    out["spill.spill_drain_ms"] = timed(spill_and_drain, repeats, setup=filled)
    out["spill.files_per_store"] = files_made
    return out


def summarize(samples: dict) -> dict:
    """Per probe: median, quartiles and the sample count."""
    import numpy as np

    summary = {}
    for name, values in samples.items():
        if not name.endswith("_ms"):
            summary[name] = max(values)
            continue
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        summary[name] = {"median": round(float(median), 3),
                         "q1": round(float(q1), 3),
                         "q3": round(float(q3), 3), "n": len(values)}
    return summary


def probe_in_subprocess(src: str, args, directory: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=directory)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-only",
         "--rows", str(args.rows), "--repeats", str(args.repeats),
         "--seed", str(args.seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def archive_parent(rev: str, directory: str) -> str:
    """``git archive`` of ``rev`` unpacked under ``directory``; its src."""
    tar_path = os.path.join(directory, "parent.tar")
    subprocess.run(
        ["git", "-C", REPO_DIR, "archive", "--format=tar", "-o", tar_path,
         rev, "src"], check=True)
    target = os.path.join(directory, "parent")
    with tarfile.open(tar_path) as tar:
        tar.extractall(target)
    return os.path.join(target, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="3 000 rows, 3 repeats, one round")
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None,
                        help="parent/change rounds, alternating the order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parent-rev", default=None,
                        help="commit to compare against (git archive)")
    parser.add_argument("--parent-src", default=None,
                        help="an existing checkout's src/ to compare against")
    parser.add_argument("--out", default=None,
                        help="result file (default BENCH_datapath.json at "
                             "the repo root when a parent is given)")
    parser.add_argument("--probe-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.rows = args.rows or (3_000 if args.quick else 60_000)
    args.repeats = args.repeats or (3 if args.quick else 7)
    args.rounds = args.rounds or (1 if args.quick else 2)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="bench-datapath-")
    try:
        if args.probe_only:
            print(json.dumps(
                run_probes(scratch, args.rows, args.repeats, args.seed)))
            return 0
        sides = {"change": os.path.join(REPO_DIR, "src")}
        if args.parent_rev:
            sides["parent"] = archive_parent(args.parent_rev, scratch)
        elif args.parent_src:
            sides["parent"] = os.path.abspath(args.parent_src)
        samples = {side: {} for side in sides}
        for round_no in range(args.rounds):
            order = sorted(sides, reverse=bool(round_no % 2))
            for side in order:
                got = probe_in_subprocess(sides[side], args, scratch)
                for name, values in got.items():
                    samples[side].setdefault(name, []).extend(values)
        report = {
            "rows": args.rows, "repeats_per_round": args.repeats,
            "rounds": args.rounds, "seed": args.seed, "unit": "ms",
            "parent_rev": args.parent_rev,
        }
        for side in sorted(sides, reverse=True):  # parent, then change
            report[side] = summarize(samples[side])
        if "parent" in sides:
            report["speedup"] = {
                name: round(report["parent"][name]["median"]
                            / report["change"][name]["median"], 2)
                for name in report["change"] if name.endswith("_ms")
            }
        for side in sorted(sides, reverse=True):
            print(f"-- {side}")
            for name, row in report[side].items():
                if isinstance(row, dict):
                    print(f"{name:28s} {row['median']:9.2f} ms  "
                          f"[{row['q1']:.2f}, {row['q3']:.2f}]  n={row['n']}")
                else:
                    print(f"{name:28s} {row}")
        if "speedup" in report:
            print("-- parent / change")
            for name, ratio in report["speedup"].items():
                print(f"{name:28s} {ratio:6.2f}x")
        out = args.out or (
            os.path.join(REPO_DIR, "BENCH_datapath.json")
            if "parent" in sides else None)
        if out:
            with open(out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {out}")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
