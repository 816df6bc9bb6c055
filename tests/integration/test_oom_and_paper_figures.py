"""Integration: OOM behaviour (Figure 12 in miniature) and the paper's
running examples (Figures 3/4 and 7/8)."""

import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.analysis.jit import optimize_source
from repro.workloads.runner import Runner


@pytest.fixture(scope="module")
def small_runner():
    r = Runner(base_rows=800, enforce_budget=True)
    r.prepare(["S", "L"], programs=["nyt", "emp"])
    yield r
    r.cleanup()


class TestOOMBehaviour:
    """A miniature Figure 12: who survives the largest dataset."""

    def test_pandas_fails_at_l_on_wide_strings(self, small_runner):
        result = small_runner.run("nyt", "pandas", "L")
        assert not result.ok
        assert "OOM" in result.error

    def test_lafp_pandas_survives_l_via_column_selection(self, small_runner):
        result = small_runner.run("nyt", "lafp_pandas", "L")
        assert result.ok, result.error

    def test_dask_survives_l_via_spilling(self, small_runner):
        result = small_runner.run("nyt", "dask", "L")
        assert result.ok, result.error

    def test_emp_plot_kills_even_lafp_dask_at_l(self, small_runner):
        result = small_runner.run("emp", "lafp_dask", "L")
        assert not result.ok
        assert "OOM" in result.error

    def test_all_modes_survive_s(self, small_runner):
        for mode in ("pandas", "modin", "dask", "lafp_dask"):
            result = small_runner.run("nyt", mode, "S")
            assert result.ok, f"{mode}: {result.error}"

    def test_optimized_peak_memory_lower(self, small_runner):
        base = small_runner.run("nyt", "pandas", "S")
        opt = small_runner.run("nyt", "lafp_pandas", "S")
        assert base.ok and opt.ok
        assert opt.peak_bytes < base.peak_bytes


class TestPaperFigures:
    """The rewrites shown in the paper regenerate structurally."""

    FIG3 = (
        "import repro.lazyfatpandas.pandas as pd\n"
        "pd.analyze()\n"
        "df = pd.read_csv('data.csv', parse_dates=['tpep_pickup_datetime'])\n"
        "df = df[df.fare_amount > 0]\n"
        "df['day'] = df.tpep_pickup_datetime.dt.dayofweek\n"
        "df = df.groupby(['day'])['passenger_count'].sum()\n"
        "print(df)\n"
    )

    FIG7 = (
        "import repro.lazyfatpandas.pandas as pd\n"
        "pd.analyze()\n"
        "df = pd.read_csv('data.csv')\n"
        "print(df.head())\n"
        "df['day'] = df.pickup_datetime.dt.dayofweek\n"
        "p_per_day = df.groupby(['day'])['passenger_count'].sum()\n"
        "print(p_per_day)\n"
        "avg_fare = df.fare_amount.mean()\n"
        "print(f'Average fare: {avg_fare}')\n"
    )

    FIG10 = (
        "import repro.lazyfatpandas.pandas as pd\n"
        "import repro.workloads.plotlib as plt\n"
        "pd.analyze()\n"
        "df = pd.read_csv('data.csv')\n"
        "print(df.head())\n"
        "df['day'] = df.pickup_datetime.dt.dayofweek\n"
        "p_per_day = df.groupby(['day'])['passenger_count'].sum()\n"
        "print(p_per_day)\n"
        "plt.plot(p_per_day)\n"
        "plt.savefig('fig.png')\n"
        "avg_fare = df.fare_amount.mean()\n"
        "print(f'Average fare: {avg_fare}')\n"
    )

    def test_fig3_becomes_fig4(self):
        out = optimize_source(self.FIG3)
        # Figure 4's signature elements:
        assert "from repro.lazyfatpandas.func import print" in out
        assert "usecols=" in out
        for column in ("fare_amount", "passenger_count", "tpep_pickup_datetime"):
            assert column in out
        assert out.rstrip().endswith("pd.flush()")
        assert "pd.analyze()" not in out

    def test_fig7_becomes_fig8(self):
        out = optimize_source(self.FIG7)
        assert "from repro.lazyfatpandas.func import print" in out
        assert out.rstrip().endswith("pd.flush()")
        # head() heuristic: the column selection still happens
        assert "usecols=" in out

    def test_fig10_becomes_fig11(self):
        out = optimize_source(self.FIG10)
        # line 10 of Figure 11: the forced compute with live_df
        assert "p_per_day.compute(live_df=[df])" in out

    def test_fig6_taskgraph_shape(self, taxi_csv):
        """The task graph of Figure 3's program has the Figure 6 nodes."""
        from repro.core.session import reset_root_session
        from repro.graph import collect_subgraph

        lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
        reset_root_session("pandas")
        df = lfp.read_csv(taxi_csv, parse_dates=["tpep_pickup_datetime"])
        df = df[df.fare_amount > 0]
        df["day"] = df.tpep_pickup_datetime.dt.dayofweek
        out = df.groupby(["day"])["passenger_count"].sum()
        ops = {n.op for n in collect_subgraph([out.node])}
        assert {
            "scan", "getitem_column", "binop", "filter",
            "dt_field", "setitem", "groupby_agg",
        } <= ops
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK
