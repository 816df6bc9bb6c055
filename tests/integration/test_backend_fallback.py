"""Integration: the pandas fallback (section 2.6).

"If a chosen back-end does not support a specific Pandas API
functionality, LaFP is able to convert data from the back-end
representation back to Pandas, to execute the original Pandas function"
-- on the Dask engine that fallback is the partition cut's gather of the
pieces.  These tests drive unsupported-on-Dask operations through the
full LaFP stack and check results against eager execution.
"""

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.backends import BackendUnsupported
from repro.core.session import Session, reset_root_session
from repro.frame import read_csv


@pytest.fixture(autouse=True)
def _dask_backend():
    lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK
    reset_root_session("dask")
    yield
    session = reset_root_session("pandas")
    del session


class TestDaskFallbacks:
    def test_sort_values_falls_back(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        out = df.sort_values("fare_amount", ascending=False).head(5).compute()
        eager = read_csv(taxi_csv).sort_values("fare_amount", ascending=False).head(5)
        assert np.allclose(
            out["fare_amount"].values, eager["fare_amount"].values
        )

    def test_describe_falls_back(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        desc = df.describe().compute()
        assert "fare_amount" in desc.columns
        assert len(desc) == 5

    def test_reset_index_falls_back(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        agg = df.groupby(["vendor"])["fare_amount"].sum()
        # groupby result is a series; to_frame + reset gets key column back
        frame = agg.to_frame("total").reset_index().compute()
        assert "total" in frame.columns

    def test_window_op_falls_back(self, taxi_csv):
        df = lfp.read_csv(taxi_csv)
        out = df.fare_amount.cumsum().compute()
        eager = read_csv(taxi_csv)["fare_amount"].cumsum()
        assert out.values[-1] == pytest.approx(eager.values[-1])

    def test_index_col_emulation(self, taxi_csv):
        df = lfp.read_csv(taxi_csv, index_col="vendor")
        out = df.compute()
        assert "vendor" not in out.columns

    def test_result_after_fallback_continues_lazily(self, taxi_csv):
        # fallback output is re-wrapped into the backend representation,
        # so downstream lazy ops keep working
        df = lfp.read_csv(taxi_csv)
        sorted_frame = df.sort_values("fare_amount")
        filtered = sorted_frame[sorted_frame.fare_amount > 0]
        total = filtered.passenger_count.sum().compute()
        eager = read_csv(taxi_csv)
        expected = eager[eager.fare_amount > 0]["passenger_count"].sum()
        assert int(total) == int(expected)


class TestFallbackKeepsTheResultIndex:
    @pytest.mark.parametrize("backend", ["dask", "modin"])
    def test_holistic_aggregate_keeps_its_group_keys(self, backend, taxi_csv):
        """A pandas-fallback result is a computed value, not a source:
        it is kept whole.  Re-splitting it by position on Dask once
        brought the group keys back as 0..n-1."""
        from repro.core.session import Session

        eager = read_csv(taxi_csv).groupby(["vendor"]).agg(
            {"fare_amount": "std", "passenger_count": "nunique"})
        with Session(backend=backend):
            df = lfp.read_csv(taxi_csv)
            out = df.groupby(["vendor"]).agg(
                {"fare_amount": "std", "passenger_count": "nunique"})
            doubled = (out["passenger_count"] * 2).collect()
            got = out.collect()
        assert got.index.name == "vendor"
        assert got.index.to_array().tolist() == eager.index.to_array().tolist()
        assert got["fare_amount"].to_list() == eager["fare_amount"].to_list()
        assert doubled.index.to_array().tolist() == eager.index.to_array().tolist()
        assert doubled.to_list() == (eager["passenger_count"] * 2).to_list()


class TestModinPath:
    def test_full_pipeline_on_modin(self, taxi_csv):
        lfp.BACKEND_ENGINE = lfp.BackendEngines.MODIN
        reset_root_session("modin")
        df = lfp.read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        df = df[df.fare_amount > 0]
        df["hour"] = df.tpep_pickup_datetime.dt.hour
        out = df.groupby(["hour"])["passenger_count"].sum().compute()
        eager = read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        eager = eager[eager.fare_amount > 0]
        eager["hour"] = eager.tpep_pickup_datetime.dt.hour
        expected = eager.groupby(["hour"])["passenger_count"].sum()
        assert np.array_equal(
            np.sort(out.values), np.sort(expected.values)
        )

    def test_modin_sort_is_native(self, taxi_csv):
        lfp.BACKEND_ENGINE = lfp.BackendEngines.MODIN
        reset_root_session("modin")
        df = lfp.read_csv(taxi_csv)
        out = df.sort_values("fare_amount").compute()
        values = out["fare_amount"].values
        assert (values[:-1] <= values[1:]).all()


class TestBackendSwitchMidSession:
    def test_backend_change_between_computes(self, taxi_csv):
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK
        df = lfp.read_csv(taxi_csv)
        total_dask = int(df.passenger_count.sum().compute())

        lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
        df2 = lfp.read_csv(taxi_csv)
        total_pandas = int(df2.passenger_count.sum().compute())
        assert total_dask == total_pandas


class TestUnsupportedOp:
    """An op the eager frame lacks fails alike on every engine and
    strategy: nothing runs it a second time elsewhere."""

    @pytest.mark.parametrize("strategy", ["serial", "threaded"])
    @pytest.mark.parametrize("engine", ["pandas", "dask", "modin"])
    def test_missing_series_method_raises(self, taxi_csv, engine, strategy):
        with Session(backend=engine,
                     options={"executor.strategy": strategy}):
            fare = lfp.scan_csv(taxi_csv, partition_bytes=1024).fare_amount
            with pytest.raises(BackendUnsupported) as caught:
                fare._call("rolling_nope").collect()
        assert str(caught.value) == "series method 'rolling_nope'"
