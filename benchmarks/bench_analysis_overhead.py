"""Section 5.3: static-analysis overhead (source-level JIT).

Paper: "The time taken by JIT static analysis phase and rewriting for
various programs is in the range of 0.04 sec - 0.59 sec, which is a very
small fraction of the execution times of the programs."

``test_analysis_overhead`` times the source-level JIT
(``optimize_source``) over every benchmark program and asserts it a
small fraction of each program's execution time.
"""

import time

from conftest import print_table

from repro.analysis.jit import optimize_source
from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import _HEADERS


def test_analysis_overhead(runner, benchmark):
    def measure():
        out = {}
        for name, spec in sorted(PROGRAMS.items()):
            source = _HEADERS["lafp_dask"] + spec.body
            start = time.perf_counter()
            optimized = optimize_source(source)
            out[name] = (time.perf_counter() - start, len(optimized))
        return out

    overheads = benchmark.pedantic(measure, rounds=1, iterations=1)

    exec_times = {
        name: runner.run(name, "lafp_dask", "S").seconds
        for name in sorted(PROGRAMS)
    }
    rows = [
        [
            name,
            f"{overheads[name][0] * 1000:.2f}",
            f"{exec_times[name]:.3f}",
            f"{100 * overheads[name][0] / exec_times[name]:.1f}%",
        ]
        for name in sorted(PROGRAMS)
    ]
    print_table(
        "JIT static analysis + rewrite overhead",
        ["prog", "analysis ms", "exec s", "fraction"],
        rows,
    )

    for name, (seconds, _) in overheads.items():
        assert seconds < 0.6, f"{name}: analysis slower than the paper's max"
        assert seconds < exec_times[name], f"{name}: overhead dominates"

