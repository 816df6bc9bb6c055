"""Plan shapes shared by the ``interactive_session`` workload and the
per-layer probes.

Every builder takes the dataframe module as ``pd`` -- the lazy
``repro.lazyfatpandas.pandas`` facade for the system under test, the
eager ``repro.workloads.pandas_compat`` for the reference -- and an
integer ``i`` that makes the plan *distinct* (other constants, same
shape), so no memo keyed on the plan can answer for its neighbour.
"""

from __future__ import annotations

import os

import numpy as np

DEEP_CHAIN = 40
WIDE_FAN_OUT = 12


def write_small_tables(directory: str, rows: int, seed: int) -> dict:
    """The notebook-sized inputs: a trips table, its zones dimension and
    a numeric table for the deep and wide shapes."""
    from repro.frame import DataFrame

    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = {name: os.path.join(directory, f"{name}.csv")
             for name in ("trips", "zones", "numbers")}
    DataFrame({
        "pickup_time": np.array(
            ["2024-06-%02d %02d:00:00" % (d, h) for d, h in zip(
                rng.integers(1, 29, rows), rng.integers(0, 24, rows))],
            dtype=object,
        ),
        "zone": rng.integers(0, 40, rows),
        "passengers": rng.integers(1, 7, rows),
        "fare": np.round(rng.uniform(0.5, 60, rows), 2),
        "tip": np.round(rng.uniform(0, 12, rows), 2),
    }).to_csv(paths["trips"])
    DataFrame({
        "zone": np.arange(40),
        "borough": np.array([f"b{i % 5}" for i in range(40)], dtype=object),
        "note": np.array([f"n{i}" for i in range(40)], dtype=object),
    }).to_csv(paths["zones"])
    DataFrame({
        "x": rng.integers(-100, 100, rows),
        "y": rng.integers(0, 13, rows),
        "fare": np.round(np.abs(rng.normal(15, 9, rows)), 2),
    }).to_csv(paths["numbers"])
    return paths


def paper(pd, paths: dict, i: int):
    """Two reads, a merge, derived columns, chained filters, a grouped
    aggregation: the deepest pipeline among the paper's programs."""
    trips = pd.read_csv(paths["trips"], parse_dates=["pickup_time"])
    zones = pd.read_csv(paths["zones"])
    trips["hour"] = trips.pickup_time.dt.hour
    trips = trips[trips.fare > 1 + i % 5]
    trips["tip_rate"] = trips.tip / trips.fare
    trips = trips[trips.passengers <= 4 + i % 3]
    joined = trips.merge(zones, on="zone")
    joined = joined.drop(columns=["note"])
    busy = joined[joined.hour >= 3 + i % 7]
    return busy.groupby(["borough"])["tip_rate"].mean()


def deep(pd, paths: dict, i: int):
    """A DEEP_CHAIN-long pipeline of row-preserving filters."""
    df = pd.read_csv(paths["numbers"])
    for j in range(DEEP_CHAIN):
        df = df[df.x > (j % 7) - 101 - i]  # always true: pure chain overhead
    return df.fare.sum()


def wide(pd, paths: dict, i: int):
    """One read fanning out to WIDE_FAN_OUT aggregates under one root."""
    df = pd.read_csv(paths["numbers"])
    df = df[df.x > -200 - i]  # keeps every row; a shared interior node
    combined = (df.fare + 0).sum()
    for k in range(1, WIDE_FAN_OUT):
        combined = combined + (df.fare + k).sum()
    return combined


SHAPES = {"paper": paper, "deep": deep, "wide": wide}
