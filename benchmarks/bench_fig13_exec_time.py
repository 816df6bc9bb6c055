"""Figure 13: absolute execution time per program and platform (size S).

Paper (1.4 GB): pandas and Modin beat Dask when data fits in memory;
LaFP versions improve on their baselines nearly everywhere; Lazy Dask is
frequently the fastest configuration overall thanks to LaFP + Dask
optimizations composing.
"""

from conftest import print_table

from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import MODES


def test_fig13_execution_time(runner, benchmark):
    def run_all():
        times = {}
        for program in sorted(PROGRAMS):
            for mode in MODES:
                result = runner.run(program, mode, "S")
                times[(program, mode)] = result.seconds if result.ok else None
        return times

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for program in sorted(PROGRAMS):
        row = [program]
        for mode in MODES:
            t = times[(program, mode)]
            row.append(f"{t:.3f}" if t is not None else "FAIL")
        rows.append(row)
    print_table(
        "Figure 13: execution time, size S (seconds)",
        ["prog", *MODES],
        rows,
    )

    # Shape assertions: every configuration completes at S...
    assert all(t is not None for t in times.values())
    # ...and LaFP does not catastrophically regress any baseline
    # (the paper's worst case is ~20% slower; we allow 2x at this scale
    # where per-run constant overheads weigh more).
    for program in sorted(PROGRAMS):
        for base, lafp in (
            ("pandas", "lafp_pandas"),
            ("dask", "lafp_dask"),
        ):
            assert times[(program, lafp)] < max(
                2.0 * times[(program, base)], times[(program, base)] + 0.5
            ), (program, base)
