"""The fixed name tables behind the four seams: engines, executor
strategies, scan formats and lint rules.

Each is built once at import and cannot be written; an unknown name
fails with a ``ValueError`` that lists the names there are.
"""

import operator

import pytest

import repro
import repro.lazyfatpandas.pandas as lfp
from repro.analysis.plan import RULES, rule
from repro.backends import ENGINES, PandasBackend
from repro.core.session import Session
from repro.graph.scheduler import STRATEGIES, SerialScheduler
from repro.io import FORMATS, CsvSource


def _collect_on_backend():
    with Session(backend="spark"):
        lfp.DataFrame({"x": [1, 2]}).collect()


def _collect_with_strategy():
    with Session(backend="pandas",
                 options={"executor.strategy": "warp"}):
        lfp.DataFrame({"x": [1, 2]}).collect()


def _collect_format(tmp_path):
    with Session(backend="pandas"):
        repro.scan_source("parquet", str(tmp_path / "x.parquet")).collect()


@pytest.mark.parametrize("run, message", [
    (lambda tmp: _collect_on_backend(),
     "unknown backend 'spark'; choose from ['dask', 'modin', 'pandas']"),
    (lambda tmp: _collect_with_strategy(),
     "unknown executor strategy 'warp'; choose from "
     "['fused', 'serial', 'threaded']"),
    (_collect_format,
     "unknown source format 'parquet'; choose from "
     "['columnar', 'csv', 'dataset', 'jsonl']"),
    (lambda tmp: rule("LFP999"),
     "unknown analyzer rule 'LFP999'; choose from "
     "['LFP001', 'LFP002', 'LFP003', 'LFP004', 'LFP005', 'LFP006']"),
], ids=["backend", "strategy", "format", "lint-code"])
def test_unknown_name_lists_the_choices(tmp_path, run, message):
    with pytest.raises(ValueError) as caught:
        run(tmp_path)
    assert str(caught.value) == message


@pytest.mark.parametrize("table, key, value", [
    (ENGINES, "toy", PandasBackend()),
    (STRATEGIES, "serial", SerialScheduler),
    (FORMATS, "tsv", CsvSource),
    (RULES, 0, RULES[1]),
], ids=["engines", "strategies", "formats", "rules"])
def test_seam_tables_are_read_only(table, key, value):
    with pytest.raises(TypeError):
        operator.setitem(table, key, value)
