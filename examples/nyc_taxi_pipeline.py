"""NYC-taxi pipeline on the out-of-core Dask backend (Figures 3-4).

Run:  python examples/nyc_taxi_pipeline.py

Generates a wide 22-column trip table (only 3 columns are actually used),
then runs the paper's running example on the Dask-like backend with a
deliberately tight simulated memory budget.  Column selection (from the
JIT rewrite) plus partitioned spilling let the program finish where an
eager whole-frame engine would OOM; the script demonstrates both.
"""

import os
import tempfile

import repro.lazyfatpandas.pandas as pd
from repro.workloads import datagen

# analyze() re-executes this file, so dataset generation must be
# idempotent (and must not run under the budget installed below).
pd.set_option("memory.budget", None)
_work = os.path.join(tempfile.gettempdir(), "lafp-taxi-demo")
_csv = os.path.join(_work, "taxi.csv")
if not os.path.exists(_csv):
    datagen.generate("taxi", _work, rows=20_000)

# budget: the paper machine's RAM:data ratio (32 GB : 12.6 GB)
budget = int(os.path.getsize(_csv) * 32 / 12.6)

# --- first, show the eager engine dying under the same budget -----------
from repro.frame import read_csv as eager_read_csv  # noqa: E402

pd.set_option("memory.budget", budget)
try:
    eager_read_csv(_csv)
    raise AssertionError("expected the eager full-width read to OOM")
except MemoryError as exc:
    import builtins

    builtins.print(f"[eager pandas-style read failed as expected: {exc}]\n")

# --- the same workload under LaFP on Dask -------------------------------
pd.BACKEND_ENGINE = pd.BackendEngines.DASK
pd.analyze()

df = pd.read_csv(_csv, parse_dates=["tpep_pickup_datetime"])
df = df[df.fare_amount > 0]
df["day"] = df.tpep_pickup_datetime.dt.dayofweek
per_day = df.groupby(["day"])["passenger_count"].sum()
print("passengers per weekday:")
print(per_day)
longest = df.trip_distance.max()
print(f"longest trip: {longest} miles")
