"""The ten benchmark programs (section 5.1).

Programs are *source templates* in plain pandas style; the runner
instantiates them with an engine header:

- ``pandas`` / ``modin``: the body runs unchanged under the respective
  compat facade (Modin is a drop-in import swap, as the paper notes),
- ``dask``: the manually-ported variant (``dask_body``) with explicit
  ``compute()`` calls where Dask needs them -- the paper's hand rewrite,
- ``lafp_*``: the unmodified body under ``lazyfatpandas`` with
  ``pd.analyze()``, one per backend.

Each body reads CSVs from the session-resolved data directory
(``workload.data_dir`` option, ``$LAFP_DATA_DIR`` as interactive
fallback) and ends with ``save_result(<final frame>, "<name>")`` for md5
regression checking.
The docstring of each template names the optimizations the paper's
evaluation attributes to that program.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

_PRELUDE = """\
from repro.workloads.resultio import save_result
from repro.workloads.paths import data_dir as _lafp_data_dir
from repro.workloads.paths import result_dir as _lafp_result_dir
DATA = _lafp_data_dir()
OUT = _lafp_result_dir()
"""


@dataclasses.dataclass
class WorkloadProgram:
    """One benchmark program."""

    name: str
    description: str
    #: plain-pandas body (used by pandas/modin/lafp_* modes).
    body: str
    #: datasets (names in :mod:`repro.workloads.datagen`) the body reads.
    datasets: List[str]
    #: optimizations the program showcases (documentation + tests).
    optimizations: List[str]
    #: manual Dask port; None when the plain body is Dask-compatible.
    dask_body: Optional[str] = None
    #: row multiplier vs BASE_ROWS (lets join tables scale together).
    row_factor: float = 1.0

    def body_for(self, engine: str) -> str:
        if engine == "dask" and self.dask_body is not None:
            return self.dask_body
        return self.body


PROGRAMS: Dict[str, WorkloadProgram] = {}


def _program(prog: WorkloadProgram) -> WorkloadProgram:
    PROGRAMS[prog.name] = prog
    return prog


_program(WorkloadProgram(
    name="nyt",
    description=(
        "NYC-taxi aggregation (the paper's Figure 3): 22-column read of "
        "which 3 are used -- the column-selection showcase."
    ),
    datasets=["taxi"],
    optimizations=["column_selection", "lazy_print"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/taxi.csv", parse_dates=["tpep_pickup_datetime"])
df = df[df.fare_amount > 0]
df["day"] = df.tpep_pickup_datetime.dt.dayofweek
df = df.groupby(["day"])["passenger_count"].sum()
print(df)
save_result(df, "nyt")
""",
))


_program(WorkloadProgram(
    name="mov",
    description=(
        "Movie-ratings join: wide fact table, small dimension table "
        "(broadcast merge), genre aggregation."
    ),
    datasets=["ratings", "movies"],
    optimizations=["column_selection", "predicate_pushdown"],
    body=_PRELUDE + """\
ratings = pd.read_csv(DATA + "/ratings.csv")
movies = pd.read_csv(DATA + "/movies.csv")
good = ratings[ratings.rating >= 4.0]
joined = good.merge(movies, on="movieId")
print(joined.head())
per_genre = joined.groupby(["genre"])["rating"].count()
print(per_genre)
save_result(per_genre, "mov")
""",
))


_program(WorkloadProgram(
    name="stu",
    description=(
        "Startup analysis: external plot forces computation mid-program; "
        "the frame is reused afterwards -- the common-computation-reuse "
        "(caching) showcase of section 5.3 (13x vs 1.4x)."
    ),
    datasets=["startups"],
    optimizations=["caching", "forced_compute", "lazy_print", "metadata"],
    body=_PRELUDE + """\
import repro.workloads.plotlib as plt
df = pd.read_csv(DATA + "/startups.csv")
df = df[df.funding_musd > 1.0]
df["ratio"] = df.valuation_musd / (df.funding_musd + 1.0)
per_sector = df.groupby(["sector"])["funding_musd"].sum()
print(per_sector)
plt.plot(per_sector)
plt.savefig(OUT + "/stu_fig.png")
per_stage = df.groupby(["stage"])["ratio"].mean()
print(per_stage)
avg_ratio = df.ratio.mean()
print(f"average ratio: {avg_ratio}")
save_result(per_stage, "stu")
""",
    dask_body=_PRELUDE + """\
import repro.workloads.plotlib as plt
df = pd.read_csv(DATA + "/startups.csv")
df = df[df.funding_musd > 1.0]
df["ratio"] = df.valuation_musd / (df.funding_musd + 1.0)
per_sector = df.groupby(["sector"])["funding_musd"].sum()
print(per_sector)
plt.plot(per_sector)
plt.savefig(OUT + "/stu_fig.png")
per_stage = df.groupby(["stage"])["ratio"].mean()
print(per_stage)
avg_ratio = df.ratio.mean().compute()
print(f"average ratio: {avg_ratio}")
save_result(per_stage, "stu")
""",
))


_program(WorkloadProgram(
    name="emp",
    description=(
        "Employee compensation: plots the *whole* frame -- the external "
        "call that must materialize a huge dataframe and OOMs every "
        "backend at the largest size (Figure 12's `emp`)."
    ),
    datasets=["employees"],
    optimizations=["forced_compute", "lazy_print"],
    body=_PRELUDE + """\
import repro.workloads.plotlib as plt
df = pd.read_csv(DATA + "/employees.csv")
df = df[df.salary > 0]
df["comp"] = df.salary + df.bonus
print(df.head())
plt.plot(df)
plt.savefig(OUT + "/emp_fig.png")
per_dept = df.groupby(["dept"])["comp"].mean()
print(per_dept)
save_result(per_dept, "emp")
""",
    dask_body=_PRELUDE + """\
import repro.workloads.plotlib as plt
df = pd.read_csv(DATA + "/employees.csv")
df = df[df.salary > 0]
df["comp"] = df.salary + df.bonus
print(df.head())
plt.plot(df.compute())
plt.savefig(OUT + "/emp_fig.png")
per_dept = df.groupby(["dept"])["comp"].mean()
print(per_dept)
save_result(per_dept, "emp")
""",
))


_program(WorkloadProgram(
    name="ais",
    description=(
        "Vessel tracking: a late filter behind dropna and a feature "
        "column -- the predicate-pushdown showcase -- plus dedup."
    ),
    datasets=["vessels"],
    optimizations=["predicate_pushdown", "column_selection"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/vessels.csv", parse_dates=["basedatetime"])
df = df.dropna(subset=["sog"])
df["hour"] = df.basedatetime.dt.hour
fast = df[df.sog > 15.0]
dedup = fast.drop_duplicates(subset=["mmsi", "hour"])
per_type = dedup.groupby(["vesseltype"])["sog"].mean()
print(per_type)
save_result(per_type, "ais")
""",
))


_program(WorkloadProgram(
    name="cty",
    description=(
        "City statistics with four prints -- the lazy-print showcase: "
        "on Dask all four share one pass over the data instead of four."
    ),
    datasets=["cities"],
    optimizations=["lazy_print", "column_selection", "caching"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/cities.csv")
print(df.head())
hot = df[df.temp_c > 20.0]
print(hot.groupby(["state"])["aqi"].mean())
big = df[df.population > 1000000]
print(big.groupby(["state"])["rainfall_mm"].mean())
res = df.groupby(["state"])["population"].sum()
print(res)
save_result(res, "cty")
""",
))


_program(WorkloadProgram(
    name="dso",
    description=(
        "Ops log triage: dropna, dtype fix, descending sort + head "
        "(order-sensitive: Dask needs the pandas fallback / manual "
        "compute)."
    ),
    datasets=["ops"],
    optimizations=["column_selection", "metadata"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/ops.csv")
df = df.dropna(subset=["latency_ms"])
df["latency_ms"] = df.latency_ms.astype("float64")
errors = df[df.status_code >= 400]
worst = errors.sort_values("latency_ms", ascending=False).head(20)
print(worst.head())
per_service = errors.groupby(["service"])["latency_ms"].mean()
print(per_service)
save_result(per_service, "dso")
""",
    dask_body=_PRELUDE + """\
df = pd.read_csv(DATA + "/ops.csv")
df = df.dropna(subset=["latency_ms"])
df["latency_ms"] = df.latency_ms.astype("float64")
errors = df[df.status_code >= 400]
worst = errors.compute().sort_values("latency_ms", ascending=False).head(20)
print(worst.head())
per_service = errors.groupby(["service"])["latency_ms"].mean()
print(per_service)
save_result(per_service, "dso")
""",
))


_program(WorkloadProgram(
    name="env",
    description=(
        "Sensor quality: between-filter and multi-aggregate groupby; "
        "the station column is a low-cardinality read-only string -- "
        "the category/metadata showcase (section 3.6)."
    ),
    datasets=["sensors"],
    optimizations=["metadata", "column_selection"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/sensors.csv")
df = df[df.pm25.between(30.0, 45.0)]
per_station = df.groupby(["station"]).agg({"pm25": "mean", "pm10": "max"})
print(per_station.head())
bad = df[df.no2 > 40.0]
cnt = bad.groupby(["station"])["no2"].count()
print(cnt)
save_result(cnt, "env")
""",
))


_program(WorkloadProgram(
    name="fdb",
    description=(
        "Food orders joined to a same-scale items table -- the shuffle "
        "join path -- with two downstream aggregations sharing the join."
    ),
    datasets=["orders", "items"],
    optimizations=["caching", "column_selection"],
    body=_PRELUDE + """\
orders = pd.read_csv(DATA + "/orders.csv")
items = pd.read_csv(DATA + "/items.csv")
orders["total"] = orders.price * orders.qty
j = orders.merge(items, on="item_id")
per_cuisine = j.groupby(["cuisine"])["total"].sum()
print(per_cuisine)
veg = j[j.veg == "yes"]
veg_count = veg.groupby(["cuisine"])["qty"].sum()
print(veg_count)
save_result(veg_count, "fdb")
""",
))


_program(WorkloadProgram(
    name="zip",
    description=(
        "Zip-code demographics: low-cardinality state column (category "
        "metadata opt) and two aggregations over a filtered frame."
    ),
    datasets=["zips"],
    optimizations=["metadata", "column_selection", "caching"],
    body=_PRELUDE + """\
df = pd.read_csv(DATA + "/zips.csv")
df = df[df.population > 80000]
df["income_pc"] = df.median_income / 52.0
per_state = df.groupby(["state"])["income_pc"].mean()
print(per_state)
top = df.groupby(["state"])["population"].sum()
print(top)
save_result(top, "zip")
""",
))
