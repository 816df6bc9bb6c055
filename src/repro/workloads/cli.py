"""Command-line harness: run benchmark programs and grids.

Usage::

    python -m repro.workloads.cli list
    python -m repro.workloads.cli run nyt --mode lafp_dask --size M
    python -m repro.workloads.cli grid --sizes S M --rows 2000
    python -m repro.workloads.cli verify stu
    python -m repro.workloads.cli lint          # analyze, execute nothing

Mirrors what the pytest benchmarks do, for interactive exploration.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.graph.scheduler import DEFAULT_EXECUTORS
from repro.graph.scheduler.stats import counter_lines
from repro.io.registry import DEFAULT_SOURCES
from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import MODES, Runner
from repro.workloads.verify import verify_program


def _cmd_list(_args) -> int:
    print(f"{'program':<8} {'datasets':<20} optimizations")
    for name, spec in sorted(PROGRAMS.items()):
        print(f"{name:<8} {','.join(spec.datasets):<20} {','.join(spec.optimizations)}")
    return 0


def _cmd_run(args) -> int:
    runner = Runner(base_rows=args.rows, enforce_budget=not args.no_budget)
    options = {"optimizer.reuse": True} if args.reuse else None
    result = runner.run(args.program, args.mode, args.size,
                        strategy=args.strategy,
                        source_format=args.source_format,
                        options=options)
    status = "ok" if result.ok else f"FAILED ({result.error})"
    print(f"{result.label}: {status}")
    print(f"  time: {result.seconds:.3f}s  peak: {result.peak_bytes / 1e6:.2f} MB"
          f"  strategy: {result.strategy}"
          f"  source: {result.source_format or 'csv'}")
    if result.result_hash:
        print(f"  result md5: {result.result_hash}")
    for line in counter_lines(result.execution_stats or {},
                              groups=("result cache", "io")):
        print(f"  {line}")
    if args.stats:
        print(json.dumps(result.to_dict(), indent=2, default=str))
    if args.show_output:
        print("--- program output ---")
        print(result.stdout, end="")
    runner.cleanup()
    return 0 if result.ok else 1


def _cmd_grid(args) -> int:
    runner = Runner(base_rows=args.rows, enforce_budget=not args.no_budget)
    header = ["size", *MODES]
    print("  ".join(f"{h:>12}" for h in header))
    exit_code = 0
    for size in args.sizes:
        counts = []
        for mode in MODES:
            ok = sum(
                1 for p in sorted(PROGRAMS) if runner.run(p, mode, size).ok
            )
            counts.append(ok)
        print("  ".join(f"{c:>12}" for c in [size] + counts))
    runner.cleanup()
    return exit_code


def _cmd_lint(args) -> int:
    runner = Runner(base_rows=args.rows, enforce_budget=False)
    programs = [args.program] if args.program else sorted(PROGRAMS)
    failures = 0
    for program in programs:
        report = runner.lint(program, size=args.size)
        status = "ok" if report.ok else "FAILED"
        print(f"{program}: {status}")
        body = report.render()
        if args.verbose or not report.ok or report.diagnostics:
            print("  " + body.replace("\n", "\n  "))
        failures += 0 if report.ok else 1
    runner.cleanup()
    return 1 if failures else 0


def _cmd_cache(_args) -> int:
    from repro.cache.result_cache import result_cache

    info = result_cache().info()
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _cmd_verify(args) -> int:
    runner = Runner(base_rows=args.rows, enforce_budget=False)
    programs = [args.program] if args.program else sorted(PROGRAMS)
    failures = 0
    for program in programs:
        report = verify_program(runner, program, size=args.size)
        status = "ok" if report.ok else f"FAILED: {report.failures}"
        print(f"{program}: {status}")
        failures += 0 if report.ok else 1
    runner.cleanup()
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.workloads.cli",
        description="LaFP reproduction benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark programs").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one (program, mode, size) cell")
    run.add_argument("program", choices=sorted(PROGRAMS))
    run.add_argument("--mode", choices=MODES, default="lafp_dask")
    run.add_argument("--size", choices=["S", "M", "L"], default="S")
    run.add_argument("--rows", type=int, default=3000)
    run.add_argument("--no-budget", action="store_true")
    run.add_argument("--show-output", action="store_true")
    run.add_argument(
        "--strategy", choices=DEFAULT_EXECUTORS.names(), default=None,
        help="executor.strategy for the cell (default: session default)",
    )
    run.add_argument(
        "--source-format",
        choices=DEFAULT_SOURCES.formats(), default=None,
        help="physical source format: generates the matching dataset "
             "variant; the program's pd.read_csv calls scan that format "
             "(lafp modes)",
    )
    run.add_argument(
        "--stats", action="store_true",
        help="emit the full result record (incl. per-node scheduler "
             "stats) as JSON",
    )
    run.add_argument(
        "--reuse", action="store_true",
        help="enable the cross-session result cache (optimizer.reuse) "
             "for the cell",
    )
    run.set_defaults(func=_cmd_run)

    grid = sub.add_parser("grid", help="Figure 12 style applicability grid")
    grid.add_argument("--sizes", nargs="+", default=["S", "M", "L"])
    grid.add_argument("--rows", type=int, default=3000)
    grid.add_argument("--no-budget", action="store_true")
    grid.set_defaults(func=_cmd_grid)

    lint = sub.add_parser(
        "lint",
        help="statically analyze programs (schema + plan rules) without "
             "executing them",
    )
    lint.add_argument("program", nargs="?", default=None,
                      choices=[None] + sorted(PROGRAMS))
    lint.add_argument("--size", choices=["S", "M", "L"], default="S")
    lint.add_argument("--rows", type=int, default=300,
                      help="dataset rows generated so source schemas "
                           "resolve (small: nothing is executed)")
    lint.add_argument("--verbose", action="store_true",
                      help="print diagnostics even for clean programs")
    lint.set_defaults(func=_cmd_lint)

    sub.add_parser(
        "cache",
        help="show the process-global result cache's counters and sizes",
    ).set_defaults(func=_cmd_cache)

    verify = sub.add_parser("verify", help="md5 regression vs plain pandas")
    verify.add_argument("program", nargs="?", default=None)
    verify.add_argument("--size", choices=["S", "M", "L"], default="S")
    verify.add_argument("--rows", type=int, default=2000)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
