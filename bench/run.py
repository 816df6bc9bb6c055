"""Run one benchmark workload in one fresh process.

    python3 bench/run.py --workload <name> [--seed N] [--seconds S]
                         [--passes P] [--quick] [--trace [0|1]]
                         [--out FILE] [--out-dir DIR]

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics without ``--trace``, the per-layer metrics with it.  Everything
before that line is for people.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import signal
import time

PROCESS_STARTED = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("paper_programs", "interactive_session", "out_of_core",
             "scan_formats")
#: the whole set-up is rehearsed into fresh directories at least
#: MIN_SETUPS times, then until SETUP_SECONDS were spent on it (MAX_SETUPS
#: times at most), and each step counts with its best round.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 5, 6.0
MIN_PASSES = 5
CHILD_MARK = "LAFP_BENCH_RUN_DIR"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="how long the measured passes run")
    parser.add_argument("--passes", type=int, default=None,
                        help="exactly this many measured passes instead")
    parser.add_argument("--quick", action="store_true",
                        help="about 1/20 of the size, one pass")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="also write the full report here as JSON")
    parser.add_argument("--out-dir", default=OUT_DIR,
                        help="where the run's temporary directory and the "
                             "Chrome trace go (default bench/out)")
    return parser.parse_args(argv)


def reexec_pinned(args) -> None:
    """Start the run again in a process whose surroundings are pinned.

    - ``PYTHONHASHSEED`` from ``--seed``: ``repro.workloads.datagen``
      seeds its generators from ``hash(name)``, which Python randomizes
      per process, so only a pinned hash lets a seed name one set of
      inputs.
    - ``TMPDIR`` into the run directory: nothing the program writes
      lands outside the checkout.
    - One CPU (:func:`pin_to_one_cpu`), inherited across the exec so the
      imports are timed under it too."""
    run_dir = os.path.join(os.path.abspath(args.out_dir),
                           f"run-{os.getpid()}")
    os.makedirs(os.path.join(run_dir, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    env[CHILD_MARK] = run_dir
    pin_to_one_cpu()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def pin_to_one_cpu() -> None:
    """Waking a thread on the VM's other, halted vCPU costs anything
    from 50 us to a millisecond depending on the host, and the worker
    pools hand work over hundreds of times per op: the same ``lafp_modin``
    cell read 40 ms or 125 ms from one run to the next.  On one CPU a
    hand-over is a context switch.  Thread counts stay what they were
    (``MAX_WORKERS``); under the GIL they never ran in parallel anyway,
    and the remote scan's prefetch overlaps sleeps, not computation."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass


def load_workload(name: str, harness, seed: int, quick: bool):
    if name == "paper_programs":
        from workloads.paper_programs import PaperPrograms as cls
    elif name == "interactive_session":
        from workloads.interactive_session import InteractiveSession as cls
    elif name == "out_of_core":
        from workloads.out_of_core import OutOfCore as cls
    else:
        from workloads.scan_formats import ScanFormats as cls
    return cls(harness, seed, quick)


SETUP_STEPS = ("prepare_s", "references_s", "warmup_s")


def set_up(workload, harness, run_dir: str, once: bool, quick: bool,
           import_s: float) -> dict:
    """Rehearse the set-up: inputs, references, first pass over the ops.

    ``setup_s`` is what a user pays from process start to the end of
    the first pass: the imports, the inputs (generated, written in every
    format, metastore statistics), the reference results and one pass
    over the ops on inputs no cache has seen.  Every round does all of
    it in a fresh directory; the last round's inputs are the ones the
    measured passes run on.  Each step counts with its best round, like
    an op counts with its best pass."""
    rounds = []
    while True:
        root = os.path.join(run_dir, f"inputs-{len(rounds)}")
        marks = [time.perf_counter()]
        workload.prepare(root)
        marks.append(time.perf_counter())
        workload.make_references()
        marks.append(time.perf_counter())
        workload.ops = workload.build_ops()
        if quick:  # it checks, it does not time: nothing to loop or warm
            for op in workload.ops:
                op.loops = min(op.loops, 2)
        else:
            harness.run_pass(workload)
        marks.append(time.perf_counter())
        rounds.append({step: after - before for step, before, after
                       in zip(SETUP_STEPS, marks, marks[1:])})
        spent = sum(sum(r.values()) for r in rounds)
        if once or len(rounds) >= MAX_SETUPS or (
                len(rounds) >= MIN_SETUPS and spent >= SETUP_SECONDS):
            break
        workload.close()
        shutil.rmtree(root, ignore_errors=True)
    harness.freeze()
    setup = {step: min(r[step] for r in rounds) for step in SETUP_STEPS}
    setup["import_s"] = import_s
    setup["setup_s"] = sum(setup.values())
    setup["rounds"] = rounds
    return setup


def main(argv) -> int:
    args = parse_args(argv)
    run_dir = os.environ.get(CHILD_MARK)
    if run_dir is None:
        reexec_pinned(args)
    # a terminated run still removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: str) -> int:
    sys.path.insert(0, os.path.join(REPO_DIR, "src"))
    import numpy
    import repro.lazyfatpandas.pandas  # noqa: F401 - the import users pay for
    import repro.workloads.runner  # noqa: F401

    import metrics
    from harness import MAX_WORKERS, NPROC, Harness, path_digest

    import_s = time.perf_counter() - PROCESS_STARTED
    catalogue = metrics.load_catalogue(REPO_DIR)
    harness = Harness(spill_dir=os.path.join(run_dir, "spill"))
    workload = load_workload(args.workload, harness, args.seed, args.quick)
    min_passes, max_passes = MIN_PASSES, args.passes
    seconds = args.seconds
    if args.quick:
        min_passes, max_passes = 1, args.passes or 1
    elif args.passes:
        min_passes = args.passes
    elif args.trace:
        # half the time measures untraced passes (collect percentiles,
        # pass spread, the base of the overhead ratio); the traced pass
        # and the probes take the rest
        seconds, min_passes = seconds / 2, 3

    try:
        setup = set_up(workload, harness, run_dir,
                       args.quick or bool(args.trace), args.quick, import_s)
        digests = {os.path.relpath(p, workload.root): path_digest(p)
                   for p in workload.input_paths()}
        measurement = harness.measure(workload, seconds, min_passes,
                                      max_passes)
        end_to_end = {
            "wall_s": measurement.wall(),
            "peak_bytes": measurement.peak_geomean(),
            "ok_op_share": measurement.ok_share(),
            "setup_s": setup["setup_s"],
        }
        per_layer = trace_info = None
        if args.trace:
            per_layer, trace_info = metrics.per_layer(
                workload, harness, measurement, setup, run_dir,
                os.path.join(os.path.abspath(args.out_dir),
                             f"trace_{args.workload}.json"),
                REPO_DIR, catalogue["per_layer"], quick=args.quick,
            )
    finally:
        workload.close()

    # -- the report for people -------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(measurement.pass_seconds)}  "
          f"python {sys.version.split()[0]}  numpy {numpy.__version__}  "
          f"nproc {NPROC}  max_workers {MAX_WORKERS}")
    for name, value in sorted(digests.items()):
        print(f"input sha256 {value}  {name}")
    print(f"setup: import {setup['import_s']:.3f}s  prepare "
          f"{setup['prepare_s']:.3f}s  references "
          f"{setup['references_s']:.3f}s  first pass "
          f"{setup['warmup_s']:.3f}s (each the best of "
          f"{len(setup['rounds'])} rounds)")
    print(f"passes: " + "  ".join(f"{s:.3f}s"
                                  for s in measurement.pass_seconds))
    for record in measurement.records:
        per_call = (f"  {record.best / record.op.loops * 1e3:8.3f} ms x "
                    f"{record.op.loops}" if record.op.loops > 1 else "")
        print(f"op {record.op.name:<28} best {record.best * 1e3:9.2f} ms"
              f"  worst {max(record.seconds) * 1e3:9.2f} ms"
              f"  peak {max(record.peaks):>10}"
              f"  failed {record.failed}/{record.attempted}{per_call}")
        for error in record.errors[:1]:
            known = "known failure" if record.known_failure else "!"
            print(f"   {known}: {error.splitlines()[0]}")
        if record.known_failure and not record.failed:
            print("   listed in known_failures.json but passes: "
                  "drop the entry")
    shown = per_layer if args.trace else end_to_end
    units = catalogue["per_layer" if args.trace else "end_to_end"]
    for name in units:
        print(f"metric {name:<40} {shown[name]:>18.6f} {units[name]}")
    if trace_info:
        print(f"trace written to {os.path.relpath(trace_info['path'])}: "
              f"{trace_info['spans']} spans, self times cover "
              f"{trace_info['coverage']:.1%} of the traced pass")
        for layer, share in trace_info["shares"].items():
            print(f"   {layer:<18} {share:6.1%}")
        for op_name, row in trace_info["by_op"].items():
            total = sum(row.values())
            shares = "  ".join(
                f"{layer} {seconds / total:.0%}"
                for layer, seconds in sorted(row.items(),
                                             key=lambda kv: -kv[1])
                if seconds / total >= 0.01)
            print(f"   op {op_name:<28} {total * 1e3:9.2f} ms  {shares}")

    # a failure known_failures.json lists lowers ok_op_share and nothing
    # else: the run is as correct as this commit can be
    result = {
        "correct": measurement.failed_unexpectedly == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed_unexpectedly,
        "metrics": {name: {"value": shown[name], "unit": units[name]}
                    for name in units},
    }
    if args.out:
        report = dict(result)
        report.update({
            "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "trace": bool(args.trace),
            "passes": len(measurement.pass_seconds),
            "pass_seconds": measurement.pass_seconds,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": NPROC, "setup": setup, "input_sha256": digests,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "wall_median_s": measurement.wall_median(),
            "wall_max_s": measurement.wall_max(),
            "trace": trace_info,
            "exact_counts": metrics.exact_counts(measurement),
            "ops": {r.op.name: {"seconds": r.seconds, "loops": r.op.loops,
                                "peak": max(r.peaks), "failed": r.failed,
                                "known_failure": r.known_failure,
                                "errors": r.errors[:3]}
                    for r in measurement.records},
        })
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
