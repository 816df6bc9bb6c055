"""Result capture for regression verification (section 5.2).

Every benchmark program ends with ``save_result(obj, name)``.  The result
is materialized (whatever the engine), normalized to a deterministic row
order (Dask does not preserve ordering), written as CSV, and its md5
recorded -- the paper's regression-test framework compares these hashes
across platforms and optimization settings.

``save_result`` counts as an *external module function* for the static
rewriter, so LaFP programs reach it with an explicit
``.compute(live_df=[...])`` wrapper; the internal materialization below
is the fallback for manually written lazy programs.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.frame import DataFrame, Series
from repro.workloads.paths import remove_stale


def result_dir() -> str:
    """The current session's result directory (option-resolved; the
    ``LAFP_RESULT_DIR`` env var is the interactive fallback)."""
    from repro.workloads.paths import result_dir as _resolve

    return _resolve()


def save_result(obj, name: str) -> str:
    """Materialize, normalize, and persist a program's result.

    Returns the md5 hex digest of the normalized CSV.
    """
    frame = _materialize(obj)
    frame = _normalize(frame)
    path = os.path.join(result_dir(), f"{name}.csv")
    remove_stale(path)
    frame.to_csv(path, index=False)
    digest = file_md5(path)
    remove_stale(path + ".md5")
    with open(path + ".md5", "w") as f:
        f.write(digest + "\n")
    return digest


def file_md5(path: str) -> str:
    hasher = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _materialize(obj) -> DataFrame:
    # Lazy LaFP wrappers.
    compute = getattr(obj, "compute", None)
    if compute is not None and not isinstance(obj, (DataFrame, Series)):
        obj = compute()
    # Partitioned eager (Modin) collections.
    to_pandas = getattr(obj, "to_pandas", None)
    if to_pandas is not None and not isinstance(obj, (DataFrame, Series)):
        obj = to_pandas()
    if isinstance(obj, Series):
        index_name = getattr(obj.index, "name", None) or "key"
        return DataFrame(
            {
                index_name: np.asarray(obj.index.to_array()),
                obj.name or "value": obj.column,
            }
        )
    if isinstance(obj, DataFrame):
        return obj
    if np.isscalar(obj) or isinstance(obj, (int, float, np.generic)):
        return DataFrame({"value": [_round_scalar(obj)]})
    raise TypeError(f"cannot save result of type {type(obj).__name__}")


def _round_scalar(value):
    if isinstance(value, (float, np.floating)):
        return round(float(value), 3)
    return value


def _normalize(frame: DataFrame) -> DataFrame:
    """Deterministic row order + floats rounded to 3 decimals (absorbs
    partition-order float association differences across engines), engine-independent."""
    out = {}
    for name in frame.columns:
        col = frame.column(name)
        arr = col.to_array()
        if arr.dtype.kind == "f":
            arr = np.round(arr, 3)
        out[name] = arr
    normalized = DataFrame(out)
    if len(normalized) > 1 and normalized.columns:
        normalized = normalized.sort_values(list(normalized.columns))
    return normalized
