"""Unit tests for the LaFP lazy wrappers, lazy print, and session."""

import io

import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.core.session import current_session, reset_root_session
from repro.lazyfatpandas.func import len as lazy_len
from repro.lazyfatpandas.func import print as lazy_print


@pytest.fixture(autouse=True)
def _pandas_backend():
    lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
    reset_root_session("pandas")
    yield
    lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK


def lazy_taxi(taxi_csv):
    return lfp.read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])


class TestLazyConstruction:
    def test_read_csv_is_lazy(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        assert frame.node.op == "scan"
        assert frame.node.args["format"] == "csv"
        assert frame.node.result is None

    def test_columns_tracked_from_header(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        assert "fare_amount" in frame.columns

    def test_dataframe_constructor(self):
        frame = lfp.DataFrame({"a": [1, 2]})
        assert frame.compute()["a"].to_list() == [1, 2]

    def test_getitem_builds_nodes(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        series = frame["fare_amount"]
        assert series.node.op == "getitem_column"
        mask = series > 0
        assert mask.node.op == "binop"
        filtered = frame[mask]
        assert filtered.node.op == "filter"

    def test_setitem_rebinds_node(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        before = frame.node.id
        frame["tip_ratio"] = frame.tip_amount / frame.fare_amount
        assert frame.node.op == "setitem"
        assert frame.node.id != before
        assert "tip_ratio" in frame.columns

    def test_getattr_column_access(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        assert frame.fare_amount.node.op == "getitem_column"

    def test_unknown_attr_raises_when_columns_known(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        with pytest.raises(AttributeError):
            frame.not_a_column


class TestComputeCorrectness:
    def test_filter_groupby_matches_eager(self, taxi_csv):
        from repro.frame import read_csv

        lazy = lazy_taxi(taxi_csv)
        lazy = lazy[lazy.fare_amount > 0]
        lazy["day"] = lazy.tpep_pickup_datetime.dt.dayofweek
        result = lazy.groupby(["day"])["passenger_count"].sum().compute()

        eager = read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        eager = eager[eager.fare_amount > 0]
        eager["day"] = eager.tpep_pickup_datetime.dt.dayofweek
        expected = eager.groupby(["day"])["passenger_count"].sum()

        assert dict(zip(result.index.to_array(), result.values)) == dict(
            zip(expected.index.to_array(), expected.values)
        )

    def test_scalar_aggregation(self, taxi_csv):
        lazy = lazy_taxi(taxi_csv)
        mean = lazy.fare_amount.mean()
        assert isinstance(float(mean), float)

    def test_lazy_scalar_arithmetic(self, taxi_csv):
        lazy = lazy_taxi(taxi_csv)
        doubled = lazy.fare_amount.mean() * 2
        single = lazy.fare_amount.mean()
        assert float(doubled) == pytest.approx(2 * float(single.compute()))

    def test_merge(self):
        left = lfp.DataFrame({"k": [1, 2], "v": [10, 20]})
        right = lfp.DataFrame({"k": [2], "w": [99]})
        out = left.merge(right, on="k").compute()
        assert out["v"].to_list() == [20]

    def test_concat(self):
        a = lfp.DataFrame({"x": [1]})
        b = lfp.DataFrame({"x": [2]})
        out = lfp.concat([a, b]).compute()
        assert out["x"].to_list() == [1, 2]

    def test_str_and_dt_lazy(self, taxi_csv):
        lazy = lazy_taxi(taxi_csv)
        upper = lazy.vendor.str.upper()
        assert upper.node.op == "str_method"
        assert upper.compute().to_list()[0].startswith("V")
        hour = lazy.tpep_pickup_datetime.dt.hour
        assert hour.node.op == "dt_field"
        assert 0 <= hour.compute().values[0] <= 23

    def test_len_forces_compute(self, taxi_csv):
        assert len(lazy_taxi(taxi_csv)) == 200

    def test_shape(self, taxi_csv):
        assert lazy_taxi(taxi_csv).shape == (200, 6)

    def test_inplace_ops(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        frame.rename(columns={"vendor": "v"}, inplace=True)
        assert "v" in frame.columns
        frame.drop(columns=["v"], inplace=True)
        assert "v" not in frame.columns

    def test_head_describe_value_counts(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        assert len(frame.head(3).compute()) == 3
        desc = frame.describe().compute()
        assert "fare_amount" in desc.columns
        counts = frame.vendor.value_counts().compute()
        assert counts.values.sum() == 200

    def test_apply_udf(self):
        frame = lfp.DataFrame({"a": [1, 2]})
        out = frame.apply(lambda row: row["a"] * 2, axis=1).compute()
        assert out.to_list() == [2, 4]

    def test_to_csv_forces(self, taxi_csv, tmp_path):
        out_path = str(tmp_path / "out.csv")
        lazy_taxi(taxi_csv)[["fare_amount"]].to_csv(out_path)
        from repro.frame import read_csv

        assert len(read_csv(out_path)) == 200


class TestLazyPrint:
    def test_print_is_deferred(self, capsys, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        lazy_print(frame.head(2))
        assert capsys.readouterr().out == ""
        lfp.flush()
        assert capsys.readouterr().out != ""

    def test_print_order_preserved(self, capsys):
        a = lfp.DataFrame({"x": [1]})
        lazy_print("first", a.x.sum())
        lazy_print("second")
        lazy_print("third", 42)
        lfp.flush()
        out = capsys.readouterr().out.splitlines()
        assert out == ["first 1", "second", "third 42"]

    def test_fstring_marker_resolved(self, capsys):
        frame = lfp.DataFrame({"x": [2, 4]})
        avg = frame.x.mean()
        lazy_print(f"average: {avg}")
        lfp.flush()
        assert capsys.readouterr().out.strip() == "average: 3.0"

    def test_plain_print_still_chained(self, capsys):
        lazy_print("hello")
        assert capsys.readouterr().out == ""
        lfp.flush()
        assert capsys.readouterr().out.strip() == "hello"

    def test_print_to_file_bypasses_laziness(self):
        buffer = io.StringIO()
        lazy_print("direct", file=buffer)
        assert buffer.getvalue().strip() == "direct"

    def test_compute_executes_pending_prints_first(self, capsys):
        frame = lfp.DataFrame({"x": [1, 2, 3]})
        lazy_print("before")
        total = frame.x.sum().compute()
        out = capsys.readouterr().out
        assert "before" in out
        assert total == 6

    def test_flush_clears_pending(self, capsys):
        lazy_print("once")
        lfp.flush()
        lfp.flush()  # no double output
        assert capsys.readouterr().out.count("once") == 1

    def test_lazy_len_in_fstring(self, capsys):
        frame = lfp.DataFrame({"x": [1, 2, 3]})
        n = lazy_len(frame)
        lazy_print(f"rows: {n}")
        lfp.flush()
        assert capsys.readouterr().out.strip() == "rows: 3"

    def test_lazy_len_on_plain_list(self):
        assert lazy_len([1, 2, 3]) == 3


class TestSession:
    def test_backend_switch(self, taxi_csv):
        session = current_session()
        session.set_backend("modin")
        assert session.backend.name == "modin"
        session.set_backend("pandas")
        assert session.backend.name == "pandas"

    def test_unknown_backend_rejected(self):
        session = current_session()
        session.set_backend("spark")
        with pytest.raises(ValueError):
            _ = session.backend

    def test_backend_engine_sync(self, taxi_csv):
        lfp.BACKEND_ENGINE = lfp.BackendEngines.MODIN
        frame = lfp.read_csv(taxi_csv)
        frame.fare_amount.sum().compute()
        assert current_session().backend.name == "modin"

    def test_live_df_marks_persist(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        frame = frame[frame.fare_amount > 0]
        total = frame.passenger_count.sum()
        total.compute(live_df=[frame])
        assert frame.node.persist
        assert frame.node.result is not None

    def test_persisted_node_reused(self, taxi_csv, monkeypatch):
        calls = []
        from repro.backends import base

        original = base._scan

        def counting(args):
            calls.append(1)
            return original(args)

        monkeypatch.setattr(base, "_scan", counting)
        frame = lazy_taxi(taxi_csv)
        frame = frame[frame.fare_amount > 0]
        # serial: the patched reader counts in this process only
        with lfp.option_context("executor.strategy", "serial"):
            frame.passenger_count.sum().compute(live_df=[frame])
            frame.passenger_count.mean().compute()
        # second compute reuses the persisted filter result: one read
        assert sum(calls) == 1

    def test_dead_persists_released(self, taxi_csv):
        frame = lazy_taxi(taxi_csv)
        filtered = frame[frame.fare_amount > 0]
        filtered.passenger_count.sum().compute(live_df=[filtered])
        assert filtered.node.persist
        # a later compute with no live_df releases the persisted result
        other = lfp.DataFrame({"x": [1]})
        other.x.sum().compute()
        assert not filtered.node.persist
