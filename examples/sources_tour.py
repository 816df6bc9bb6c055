"""Source-layer tour: one scan API, three physical formats.

Run:  python examples/sources_tour.py

PR 5 unified data ingress behind the `DataSource` protocol
(`repro.io`): a source declares its schema and its partitions (with
whatever statistics are known), reads only the columns and rows it is
asked for, and the optimizer negotiates at that boundary --

- `scan_csv`    byte-range partitioned CSV (the seed reader behind the
                protocol),
- `scan_jsonl`  newline-delimited JSON (types survive the file format),
- `scan_dataset` hive-style ``key=value/`` directories, where partition
                keys are exact and predicates over them prune whole
                files before any byte is read.

All three build LazyFrames rooted at a generic ``scan`` node;
``push_down_projections`` / ``push_down_predicates`` terminate by
folding into the scan's args, and the pruning pass drops partitions the
statistics prove empty.  ``explain()`` shows the folded contract;
``explain(stats=True)`` shows how many partitions were actually read.
"""

import os
import shutil
import tempfile

import numpy as np

import repro.lazyfatpandas.pandas as pd
from repro.core.session import Session
from repro.frame import DataFrame
from repro.io import write_dataset, write_jsonl

# -- a self-contained dataset in all three formats ---------------------------

_dir = tempfile.mkdtemp(prefix="lafp-sources-")
_n = 4_000
_rng = np.random.default_rng(13)
_frame = DataFrame(
    {
        "region": _rng.choice(
            np.array(["east", "west", "north", "south"], dtype=object), _n
        ),
        "amount": np.round(np.abs(_rng.normal(40, 25, _n)), 2),
        "qty": _rng.integers(1, 9, _n),
    }
)

_csv = os.path.join(_dir, "sales.csv")
_frame.to_csv(_csv)
_jsonl = os.path.join(_dir, "sales.jsonl")
write_jsonl(_frame, _jsonl)
_hive = os.path.join(_dir, "sales_hive")
write_dataset(_frame, _hive, partition_on="region")


def report(title, lazy):
    print(f"--- {title} ---")
    value = float(lazy.collect())
    print(lazy.explain(stats=True))
    print(f"result: {value:.2f}\n")
    return value


with Session(backend="pandas"):
    # 1. CSV through the scan node: projection AND predicate fold into
    #    the source (watch `columns=` / `predicate=` on the scan line).
    df = pd.scan_csv(_csv)
    csv_total = report(
        "scan_csv: folded projection + predicate",
        df[df.region == "east"]["amount"].sum(),
    )

    # 2. Same pipeline over JSONL: a different physical format behind
    #    the same protocol, same folded plan, same answer.
    df = pd.scan_jsonl(_jsonl)
    jsonl_total = report(
        "scan_jsonl: same plan, different bytes",
        df[df.region == "east"]["amount"].sum(),
    )

    # 3. The hive dataset: `region` is a *partition key*, so the folded
    #    predicate prunes 3 of the 4 partitions before reading -- the
    #    stats section reports `scan partitions read: 1/4`.
    df = pd.scan_dataset(_hive)
    hive_total = report(
        "scan_dataset: hive-key partition pruning",
        df[df.region == "east"]["amount"].sum(),
    )

    assert abs(csv_total - jsonl_total) < 1e-6
    assert abs(csv_total - hive_total) < 1e-6

    # 4. The ablation: without predicate pushdown nothing folds, so
    #    nothing can prune -- every partition is read.
    with pd.option_context(
        "optimizer.predicate_pushdown", False,
        "optimizer.partition_pruning", False,
    ):
        df = pd.scan_dataset(_hive)
        report(
            "ablated: no fold, no pruning (4/4 partitions read)",
            df[df.region == "east"]["amount"].sum(),
        )

    # 5. from_pandas: an eager frame enters the same lazy graph.
    eager = DataFrame({"x": np.arange(6), "y": np.arange(6) * 3})
    lf = pd.from_pandas(eager)
    total = lf[lf.x > 2].y.sum()
    print("--- from_pandas ---")
    print(f"sum(y) where x>2: {float(total.collect()):.1f}")

shutil.rmtree(_dir, ignore_errors=True)
print("sources tour done.")
