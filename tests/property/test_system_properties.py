"""Property-based tests for system-level invariants:

- the Dask simulator computes the same results as the eager engine for
  arbitrary pipelines, at any partitioning;
- SCIRPy region reconstruction preserves program behaviour for randomly
  generated structured programs;
- the LaFP optimizer never changes results.
"""

import contextlib
import io
import os

from hypothesis import given, settings, strategies as st

import repro.lazyfatpandas.pandas as lfp
from repro.analysis.scirpy import cfg_to_source, lower_source
from repro.core.session import reset_root_session
from repro.frame import DataFrame, read_csv
from repro.workloads import dask_compat

ints = st.integers(min_value=-100, max_value=100)
keys = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def csv_tables(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    return {
        "k": draw(st.lists(keys, min_size=n, max_size=n)),
        "v": draw(st.lists(ints, min_size=n, max_size=n)),
    }


class TestDaskEquivalence:
    @given(data=csv_tables(), nparts=st.integers(min_value=1, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_partitioned_groupby_equals_eager(self, tmp_path_factory, data, nparts):
        path = os.path.join(tmp_path_factory.mktemp("dask"), "t.csv")
        DataFrame(data).to_csv(path)
        eager = read_csv(path).groupby("k")["v"].sum()

        size = os.path.getsize(path)
        lazy = dask_compat.read_csv(
            path, partition_bytes=max(1, size // nparts)
        ).groupby("k")["v"].sum()

        got = dict(zip(lazy.index.to_array(), lazy.values))
        want = dict(zip(eager.index.to_array(), eager.values))
        assert got == want

    @given(data=csv_tables(), threshold=ints, nparts=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_partitioned_filter_equals_eager(
        self, tmp_path_factory, data, threshold, nparts
    ):
        path = os.path.join(tmp_path_factory.mktemp("dask"), "t.csv")
        DataFrame(data).to_csv(path)
        eager = read_csv(path)
        expected = sorted(eager[eager["v"] > threshold]["v"].to_list())

        size = os.path.getsize(path)
        lazy = dask_compat.read_csv(
            path, partition_bytes=max(1, size // nparts))
        got = sorted(lazy[lazy["v"] > threshold].compute()["v"].to_list())
        assert got == expected


# -- random structured programs ------------------------------------------------


@st.composite
def structured_programs(draw, depth=0):
    """Random break/continue-free structured programs over x, y, t."""
    statements = []
    n = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["assign", "if", "for"] if depth < 2 else ["assign"]
            )
        )
        if kind == "assign":
            var = draw(st.sampled_from(["x", "y", "t"]))
            op = draw(st.sampled_from(["+", "-", "*"]))
            const = draw(st.integers(min_value=1, max_value=5))
            statements.append(f"{var} = {var} {op} {const}")
        elif kind == "if":
            cond_var = draw(st.sampled_from(["x", "y", "t"]))
            bound = draw(st.integers(min_value=-10, max_value=10))
            body = draw(structured_programs(depth=depth + 1))
            block = [f"if {cond_var} > {bound}:"]
            block += ["    " + line for line in body]
            if draw(st.booleans()):
                orelse = draw(structured_programs(depth=depth + 1))
                block.append("else:")
                block += ["    " + line for line in orelse]
            statements.extend(block)
        else:
            count = draw(st.integers(min_value=0, max_value=4))
            body = draw(structured_programs(depth=depth + 1))
            statements.append(f"for i{depth} in range({count}):")
            statements.extend("    " + line for line in body)
    return statements


@given(structured_programs())
@settings(max_examples=60, deadline=None)
def test_region_roundtrip_preserves_behaviour(body):
    source = "x = 1\ny = 2\nt = 0\n" + "\n".join(body) + "\nprint(x, y, t)\n"
    cfg, _ = lower_source(source)
    regenerated = cfg_to_source(cfg)
    ns1, ns2 = {}, {}
    out1, out2 = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out1):
        exec(source, ns1)  # noqa: S102
    with contextlib.redirect_stdout(out2):
        exec(regenerated, ns2)  # noqa: S102
    assert out1.getvalue() == out2.getvalue()


# -- optimizer safety ----------------------------------------------------------


class TestOptimizerNeverChangesResults:
    @given(data=csv_tables(), threshold=ints)
    @settings(max_examples=20, deadline=None)
    def test_lazy_pipeline_equals_eager(self, tmp_path_factory, data, threshold):
        path = os.path.join(tmp_path_factory.mktemp("opt"), "t.csv")
        DataFrame(data).to_csv(path)

        eager = read_csv(path)
        eager = eager[eager["v"] > threshold]
        eager["w"] = eager["v"] * 2
        expected = eager.groupby("k")["w"].sum()

        lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
        reset_root_session("pandas")
        lazy = lfp.read_csv(path)
        lazy = lazy[lazy.v > threshold]
        lazy["w"] = lazy.v * 2
        got = lazy.groupby(["k"])["w"].sum().compute()
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK

        assert dict(zip(got.index.to_array(), got.values)) == dict(
            zip(expected.index.to_array(), expected.values)
        )
