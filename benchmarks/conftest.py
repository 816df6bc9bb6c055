"""Shared benchmark fixtures.

One session-scoped :class:`Runner` serves every figure; datasets generate
once per size.  ``LAFP_BENCH_ROWS`` scales the S size (default 3000 rows,
the calibration used for EXPERIMENTS.md; smaller values run faster but
blur the memory crossovers).
"""

import os

import pytest

from repro.workloads.runner import Runner


@pytest.fixture(scope="session")
def runner():
    rows = int(os.environ.get("LAFP_BENCH_ROWS", "3000"))
    r = Runner(base_rows=rows, enforce_budget=True)
    yield r
    r.cleanup()


def print_table(title, header, rows):
    """Paper-style fixed-width table printer."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) + 2
        for i in range(len(header))
    ]
    print("".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("".join(str(c).rjust(w) for c, w in zip(row, widths)))
