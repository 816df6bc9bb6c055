"""Synthetic dataset generators.

The paper's datasets (taxi trips, movie ratings, startups, employees,
vessel tracks, city stats, ops logs, sensor readings, food orders, zip
codes) are reproduced at laptop scale with the *shapes* that make the
optimizations matter:

- wide tables (20+ columns) of which programs use 2-4 (column selection),
- heavy string padding columns (memory pressure / OOM realism),
- low-cardinality string columns (category dtype, metadata opt),
- a small and a large join table (broadcast vs shuffle merges),
- timestamp columns (``parse_dates`` + ``.dt`` features).

All generators are deterministic (seeded per dataset) and parameterized
by row count; the runner scales S : M : L as 1 : 3 : 9 like the paper's
1.4 : 4.2 : 12.6 GB.

Every dataset can additionally be emitted as *source-format variants*
next to its CSV (the runner's ``--source-format`` axis): a JSONL sibling
(``taxi.jsonl``), a columnar sibling (``taxi.lfc``, per-chunk stats in
its footer), and a hive-partitioned directory sibling
(``taxi_hive/payment_type=1/part-0.csv`` ...) partitioned on the
dataset's natural low-cardinality column (:data:`PARTITION_KEYS`).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable

import numpy as np

from repro.frame import DataFrame

#: rows for the "S" size of each dataset; M = 3x, L = 9x.
BASE_ROWS = 12_000

#: dataset -> the low-cardinality column its hive variant partitions on.
PARTITION_KEYS: Dict[str, str] = {
    "taxi": "payment_type",
    "ratings": "device",
    "movies": "genre",
    "startups": "stage",
    "employees": "dept",
    "vessels": "status",
    "cities": "state",
    "ops": "service",
    "sensors": "station",
    "orders": "qty",
    "items": "cuisine",
    "zips": "state",
}

_GENERATORS: Dict[str, Callable[[str, int], None]] = {}


def dataset(name: str):
    def register(func):
        _GENERATORS[name] = func
        return func

    return register


def generate(
    name: str,
    directory: str,
    rows: int,
    variants: Iterable[str] = (),
) -> str:
    """Generate dataset ``name`` with ~``rows`` rows into ``directory``.

    ``variants`` additionally emits sibling copies in other physical
    formats (``"jsonl"`` / ``"dataset"``) for the source-format axis.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.csv")
    _GENERATORS[name](path, rows)
    for fmt in variants:
        generate_variant(name, directory, fmt)
    return path


def generate_variant(name: str, directory: str, fmt: str) -> str:
    """Emit the ``fmt`` sibling of an already generated CSV.

    Naming matches :func:`repro.io.api.sibling_variant`, which is how
    the facade's ``read_csv`` finds the variant when
    ``workload.source_format`` names another format for its scan leaf.
    """
    from repro.frame.io_csv import read_csv
    from repro.io import write_columnar, write_dataset, write_jsonl

    csv_path = os.path.join(directory, f"{name}.csv")
    frame = read_csv(csv_path)
    if fmt == "jsonl":
        out = os.path.join(directory, f"{name}.jsonl")
        write_jsonl(frame, out)
        return out
    if fmt == "columnar":
        out = os.path.join(directory, f"{name}.lfc")
        write_columnar(frame, out)
        return out
    if fmt == "dataset":
        out = os.path.join(directory, f"{name}_hive")
        write_dataset(frame, out, partition_on=PARTITION_KEYS[name])
        return out
    raise ValueError(f"unknown source-format variant {fmt!r}")


def _rng(name: str) -> np.random.Generator:
    return np.random.default_rng(abs(hash(name)) % (2**32))


def _pad(prefix: str, n: int, width: int = 24, pool: int = 0) -> np.ndarray:
    """String padding column.

    ``pool=0`` gives unique-per-row strings (incompressible -- the worst
    case for every engine); ``pool=k`` draws from k distinct values,
    which Arrow-style dictionary encoding (the Modin simulator) stores
    almost for free while plain object columns still pay full price.
    """
    if pool:
        values = np.array(
            [f"{prefix}-{i:06d}-{'x' * width}" for i in range(pool)],
            dtype=object,
        )
        rng = np.random.default_rng(abs(hash(prefix)) % (2**32))
        return rng.choice(values, n)
    return np.array(
        [f"{prefix}-{i:08d}-{'x' * width}" for i in range(n)], dtype=object
    )


def _timestamps(rng, n: int) -> np.ndarray:
    days = rng.integers(1, 28, n)
    hours = rng.integers(0, 24, n)
    minutes = rng.integers(0, 60, n)
    months = rng.integers(1, 13, n)
    return np.array(
        [
            f"2024-{m:02d}-{d:02d} {h:02d}:{mi:02d}:00"
            for m, d, h, mi in zip(months, days, hours, minutes)
        ],
        dtype=object,
    )


def _write(path: str, columns: dict) -> None:
    DataFrame(columns).to_csv(path)


@dataset("taxi")
def _taxi(path: str, rows: int) -> None:
    """22-column trip table; programs use 3-4 columns (nyt, Fig. 3)."""
    rng = _rng("taxi")
    cols = {
        "tpep_pickup_datetime": _timestamps(rng, rows),
        "tpep_dropoff_datetime": _timestamps(rng, rows),
        "passenger_count": rng.integers(1, 7, rows),
        "trip_distance": np.round(rng.exponential(3.0, rows), 2),
        "fare_amount": np.round(rng.normal(18, 12, rows), 2),
        "tip_amount": np.round(np.abs(rng.normal(2, 2, rows)), 2),
        "payment_type": rng.integers(1, 5, rows),
    }
    for i in range(15):
        cols[f"aux_{i:02d}"] = _pad(f"t{i}", rows, width=16)
    _write(path, cols)


@dataset("ratings")
def _ratings(path: str, rows: int) -> None:
    """Movie ratings fact table (mov)."""
    rng = _rng("ratings")
    cols = {
        "userId": rng.integers(1, max(2, rows // 20), rows),
        "movieId": rng.integers(1, 2000, rows),
        "rating": np.round(rng.integers(1, 11, rows) / 2.0, 1),
        "timestamp": _timestamps(rng, rows),
        "device": rng.choice(
            np.array(["mobile", "web", "tv", "tablet"], dtype=object), rows
        ),
    }
    for i in range(10):
        cols[f"meta_{i:02d}"] = _pad(f"r{i}", rows, width=20)
    _write(path, cols)


@dataset("movies")
def _movies(path: str, rows: int) -> None:
    """Small movie dimension table (broadcast join side)."""
    rng = _rng("movies")
    n = 2000
    genres = np.array(
        ["Action", "Comedy", "Drama", "Horror", "SciFi", "Romance", "Doc"],
        dtype=object,
    )
    _write(
        path,
        {
            "movieId": np.arange(1, n + 1),
            "title": _pad("film", n, width=12),
            "genre": rng.choice(genres, n),
            "year": rng.integers(1960, 2025, n),
        },
    )


@dataset("startups")
def _startups(path: str, rows: int) -> None:
    """Startup funding table (stu): reused across a compute boundary."""
    rng = _rng("startups")
    sectors = np.array(
        ["fintech", "health", "ai", "retail", "energy", "bio", "edu"],
        dtype=object,
    )
    stages = np.array(["seed", "A", "B", "C", "late"], dtype=object)
    cols = {
        "name": _pad("startup", rows, width=10),
        "sector": rng.choice(sectors, rows),
        "stage": rng.choice(stages, rows),
        "funding_musd": np.round(np.abs(rng.normal(20, 30, rows)), 2),
        "valuation_musd": np.round(np.abs(rng.normal(120, 200, rows)), 2),
        "employees": rng.integers(2, 2000, rows),
        "founded": rng.integers(1995, 2025, rows),
    }
    for i in range(12):
        cols[f"desc_{i:02d}"] = _pad(f"s{i}", rows, width=22)
    _write(path, cols)


@dataset("employees")
def _employees(path: str, rows: int) -> None:
    """HR table (emp): its program plots a huge frame (the Fig. 12 OOM)."""
    rng = _rng("employees")
    depts = np.array(
        ["eng", "sales", "hr", "ops", "legal", "finance"], dtype=object
    )
    cols = {
        "emp_id": np.arange(1, rows + 1),
        "dept": rng.choice(depts, rows),
        "salary": np.round(rng.normal(90_000, 25_000, rows), 0),
        "bonus": np.round(np.abs(rng.normal(5_000, 4_000, rows)), 0),
        "tenure_years": np.round(np.abs(rng.normal(4, 3, rows)), 1),
        "rating": rng.integers(1, 6, rows),
    }
    for i in range(9):
        cols[f"notes_{i:02d}"] = _pad(f"e{i}", rows, width=18)
    _write(path, cols)


@dataset("vessels")
def _vessels(path: str, rows: int) -> None:
    """AIS ship-track table (ais)."""
    rng = _rng("vessels")
    cols = {
        "mmsi": rng.integers(100_000, 100_000 + max(2, rows // 50), rows),
        "basedatetime": _timestamps(rng, rows),
        "lat": np.round(rng.uniform(-60, 60, rows), 5),
        "lon": np.round(rng.uniform(-180, 180, rows), 5),
        "sog": np.round(np.abs(rng.normal(12, 6, rows)), 1),
        "vesseltype": rng.integers(60, 90, rows),
        "status": rng.integers(0, 9, rows),
    }
    for i in range(13):
        cols[f"raw_{i:02d}"] = _pad(f"v{i}", rows, width=18, pool=200)
    _write(path, cols)


@dataset("cities")
def _cities(path: str, rows: int) -> None:
    """City weather/quality table (cty): the multi-print program."""
    rng = _rng("cities")
    states = np.array(
        ["CA", "NY", "TX", "WA", "FL", "IL", "MA", "CO", "GA", "OR"],
        dtype=object,
    )
    cols = {
        "city": _pad("city", rows, width=8),
        "state": rng.choice(states, rows),
        "population": rng.integers(5_000, 5_000_000, rows),
        "temp_c": np.round(rng.normal(15, 10, rows), 1),
        "aqi": rng.integers(5, 300, rows),
        "rainfall_mm": np.round(np.abs(rng.normal(800, 400, rows)), 1),
    }
    for i in range(12):
        cols[f"extra_{i:02d}"] = _pad(f"c{i}", rows, width=20, pool=200)
    _write(path, cols)


@dataset("ops")
def _ops(path: str, rows: int) -> None:
    """Operations log (dso): dropna + sort + head, order-sensitive."""
    rng = _rng("ops")
    services = np.array(
        ["api", "web", "db", "cache", "queue", "auth"], dtype=object
    )
    latency = np.round(np.abs(rng.normal(120, 80, rows)), 2)
    miss = rng.random(rows) < 0.05  # 5% missing latencies
    cols = {
        "ts": _timestamps(rng, rows),
        "service": rng.choice(services, rows),
        "latency_ms": np.where(miss, "", latency.astype(str)),
        "status_code": rng.choice(np.array([200, 200, 200, 404, 500]), rows),
        "bytes_out": rng.integers(100, 1_000_000, rows),
    }
    for i in range(11):
        cols[f"trace_{i:02d}"] = _pad(f"o{i}", rows, width=22)
    _write(path, cols)


@dataset("sensors")
def _sensors(path: str, rows: int) -> None:
    """Environmental sensor readings (env): metadata/category showcase.

    Deliberately numeric-heavy (epoch timestamps, extra channel columns)
    so the full-width read fits in simulated RAM even at size L -- one of
    Figure 12's two programs that plain pandas survives.
    """
    rng = _rng("sensors")
    stations = np.array([f"ST{i:03d}" for i in range(40)], dtype=object)
    cols = {
        "station": rng.choice(stations, rows),
        "epoch": rng.integers(1_700_000_000, 1_735_000_000, rows),
        "pm25": np.round(np.abs(rng.normal(35, 20, rows)), 2),
        "pm10": np.round(np.abs(rng.normal(60, 30, rows)), 2),
        "no2": np.round(np.abs(rng.normal(25, 12, rows)), 2),
        "o3": np.round(np.abs(rng.normal(40, 18, rows)), 2),
        "humidity": np.round(rng.uniform(10, 95, rows), 1),
    }
    for i in range(8):
        cols[f"ch_{i:02d}"] = rng.integers(100_000, 9_999_999, rows)
    _write(path, cols)


@dataset("orders")
def _orders(path: str, rows: int) -> None:
    """Food delivery orders (fdb): the shuffle-join fact table."""
    rng = _rng("orders")
    cols = {
        "order_id": np.arange(1, rows + 1),
        "item_id": rng.integers(1, max(2, rows // 4), rows),
        "qty": rng.integers(1, 6, rows),
        "price": np.round(rng.uniform(3, 60, rows), 2),
        "placed_at": _timestamps(rng, rows),
    }
    for i in range(11):
        cols[f"addr_{i:02d}"] = _pad(f"f{i}", rows, width=20)
    _write(path, cols)


@dataset("items")
def _items(path: str, rows: int) -> None:
    """Food items table, scaled with the fact table (shuffle side)."""
    rng = _rng("items")
    n = max(2, rows // 4)
    cuisines = np.array(
        ["indian", "thai", "italian", "mexican", "japanese", "greek"],
        dtype=object,
    )
    _write(
        path,
        {
            "item_id": np.arange(1, n + 1),
            "cuisine": rng.choice(cuisines, n),
            "calories": rng.integers(150, 1500, n),
            "veg": rng.choice(np.array(["yes", "no"], dtype=object), n),
        },
    )


@dataset("zips")
def _zips(path: str, rows: int) -> None:
    """Zip-code demographics (zip): low-cardinality category showcase."""
    rng = _rng("zips")
    states = np.array(
        ["CA", "NY", "TX", "WA", "FL", "IL", "MA", "CO", "GA", "OR",
         "NC", "AZ", "NV", "MI", "OH"],
        dtype=object,
    )
    cols = {
        "zip": rng.integers(501, 99950, rows),
        "state": rng.choice(states, rows),
        "population": rng.integers(100, 120_000, rows),
        "median_income": rng.integers(18_000, 220_000, rows),
        "households": rng.integers(40, 50_000, rows),
    }
    # numeric-heavy padding: the second pandas survivor of Figure 12.
    for i in range(8):
        cols[f"geo_{i:02d}"] = rng.integers(100_000, 9_999_999, rows)
    _write(path, cols)
