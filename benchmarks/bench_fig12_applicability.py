"""Figure 12: number of programs successfully executed per platform.

Paper (32 GB RAM, datasets 1.4 / 4.2 / 12.6 GB)::

    Size   Pandas LPandas Modin LModin Dask LDask
    1.4GB      10      10    10     10   10    10
    4.2GB      10      10     9      9   10    10
    12.6GB      2       7     4      7    8     9

We reproduce the pattern at laptop scale with the same RAM:data ratio.
The benchmark prints the measured table and asserts the structural
relations the paper's narrative depends on.
"""

from conftest import print_table

from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import MODES

PAPER = {
    ("S", "pandas"): 10, ("S", "lafp_pandas"): 10, ("S", "modin"): 10,
    ("S", "lafp_modin"): 10, ("S", "dask"): 10, ("S", "lafp_dask"): 10,
    ("M", "pandas"): 10, ("M", "lafp_pandas"): 10, ("M", "modin"): 9,
    ("M", "lafp_modin"): 9, ("M", "dask"): 10, ("M", "lafp_dask"): 10,
    ("L", "pandas"): 2, ("L", "lafp_pandas"): 7, ("L", "modin"): 4,
    ("L", "lafp_modin"): 7, ("L", "dask"): 8, ("L", "lafp_dask"): 9,
}


def test_fig12_applicability(runner, benchmark):
    def run_grid():
        grid = {}
        for size in ("S", "M", "L"):
            for mode in MODES:
                count = 0
                for program in sorted(PROGRAMS):
                    if runner.run(program, mode, size).ok:
                        count += 1
                grid[(size, mode)] = count
        return grid

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = [
        [size] + [grid[(size, mode)] for mode in MODES]
        for size in ("S", "M", "L")
    ]
    rows.append(
        ["paper-L"] + [PAPER[("L", mode)] for mode in MODES]
    )
    print_table(
        "Figure 12: programs successfully executed (of 10)",
        ["Size", *MODES],
        rows,
    )

    # Shape assertions (the paper's claims, not its absolute numbers):
    # everything runs at the smallest size,
    assert all(grid[("S", mode)] == 10 for mode in MODES)
    # at L, plain pandas fails most programs while LaFP rescues many,
    assert grid[("L", "pandas")] <= 4
    assert grid[("L", "lafp_pandas")] >= grid[("L", "pandas")] + 3
    # Modin sits between pandas and Dask,
    assert grid[("L", "pandas")] <= grid[("L", "modin")] <= grid[("L", "dask")]
    # LaFP never hurts applicability,
    for size in ("S", "M", "L"):
        assert grid[(size, "lafp_pandas")] >= grid[(size, "pandas")]
        assert grid[(size, "lafp_modin")] >= grid[(size, "modin")]
        assert grid[(size, "lafp_dask")] >= grid[(size, "dask")] - 1
    # and LDask is the most robust configuration (9 of 10: `emp` dies).
    assert grid[("L", "lafp_dask")] == max(
        grid[("L", mode)] for mode in MODES
    )
    assert grid[("L", "lafp_dask")] == 9
