"""Static plan analyzer tour: catch broken programs before they run.

Run:  python examples/analysis_tour.py

PR 6 added a static analysis layer over the task graph
(`repro.analysis.plan`): a schema inference pass walks the plan forward
from its sources (CSV headers, dataset manifests, declared dtypes) and
a table of lint rules reads the inferred schemas to diagnose the
plan -- all before a single partition is read.  This mirrors the
paper's source-level JIT analysis, one layer down: the same "analyze
first, execute later" budget applied to the logical plan itself.

The tour:

1. a correct pipeline -- ``explain(diagnostics=True)`` shows a clean
   report next to the plan,
2. a typo'd column -- ``validate()`` rejects the plan *statically*,
   naming the node, the bad column, and the columns that exist,
3. the ``analysis.level`` option -- ``warn`` (default) emits a
   warning on ``collect()``; ``strict`` refuses to execute; ``off``
   skips the gate entirely.
"""

import os
import tempfile
import warnings

import numpy as np

import repro.lazyfatpandas.pandas as pd
from repro.analysis.plan import PlanValidationError
from repro.core.session import Session
from repro.frame import DataFrame

# -- a small trips table -----------------------------------------------------

_dir = tempfile.mkdtemp(prefix="lafp-analysis-")
_csv = os.path.join(_dir, "trips.csv")
_n = 2_000
_rng = np.random.default_rng(11)
DataFrame(
    {
        "pickup_time": np.array(
            ["2024-06-%02d %02d:00:00" % (i % 28 + 1, i % 24)
             for i in range(_n)],
            dtype=object,
        ),
        "passengers": _rng.integers(1, 7, _n),
        "fare": np.round(_rng.uniform(1, 60, _n), 2),
        "tip": np.round(_rng.uniform(0, 12, _n), 2),
    }
).to_csv(_csv)


with Session(backend="pandas") as session:
    # 1. a correct pipeline: the diagnostics section is clean ---------------
    trips = pd.read_csv(_csv, parse_dates=["pickup_time"])
    trips["hour"] = trips.pickup_time.dt.hour
    busy = trips[trips.hour >= 7]
    by_hour = busy.groupby(["hour"])["fare"].mean()
    print("--- clean plan: explain(diagnostics=True) ---")
    print(by_hour.explain(diagnostics=True, optimized=False))
    print()

    # 2. a typo'd column: rejected before any byte is read ------------------
    bad = trips[["fare", "tlp"]]  # "tlp" is a typo for "tip"
    print("--- broken plan: validate() ---")
    try:
        bad.validate()
    except PlanValidationError as err:
        print(err.render())
    print()

    # 3. the analysis.level gate on collect() -------------------------------
    print("--- analysis.level = warn (default): collect() warns ---")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            bad.collect()
        except Exception as exc:  # pandas itself fails at execution
            print(f"execution error: {type(exc).__name__}")
    for w in caught:
        print(f"warned first: {w.message}")
    print()

    print("--- analysis.level = strict: collect() refuses to run ---")
    with session.option_context("analysis.level", "strict"):
        try:
            bad.collect()
        except PlanValidationError as err:
            print(f"rejected statically: {err.errors[0].message}")
    print()
