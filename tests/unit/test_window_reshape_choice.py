"""Unit tests: window ops, reshaping, and the CLI."""

import numpy as np
import pytest

from repro.frame import DataFrame, Series


class TestWindowOps:
    def test_shift_forward(self):
        s = Series([1.0, 2.0, 3.0]).shift(1)
        assert np.isnan(s.values[0])
        assert s.to_list()[1:] == [1.0, 2.0]

    def test_shift_backward(self):
        s = Series([1.0, 2.0, 3.0]).shift(-1)
        assert s.to_list()[:2] == [2.0, 3.0]
        assert np.isnan(s.values[2])

    def test_shift_object(self):
        s = Series(["a", "b"]).shift(1)
        assert s.to_list() == [None, "a"]

    def test_diff(self):
        s = Series([1.0, 4.0, 9.0]).diff()
        assert np.isnan(s.values[0])
        assert s.to_list()[1:] == [3.0, 5.0]

    def test_cumsum_cummax_cummin(self):
        s = Series([3, 1, 4])
        assert s.cumsum().to_list() == [3, 4, 8]
        assert s.cummax().to_list() == [3, 3, 4]
        assert s.cummin().to_list() == [3, 1, 1]

    def test_rank_average_ties(self):
        s = Series([10.0, 20.0, 20.0, 30.0]).rank()
        assert s.to_list() == [1.0, 2.5, 2.5, 4.0]

    def test_clip(self):
        s = Series([1, 5, 10]).clip(2, 8)
        assert s.to_list() == [2, 5, 8]

    def test_rolling_mean(self):
        s = Series([1.0, 2.0, 3.0, 4.0]).rolling(2).mean()
        assert np.isnan(s.values[0])
        assert s.to_list()[1:] == [1.5, 2.5, 3.5]

    def test_rolling_sum_window_larger_than_series(self):
        s = Series([1.0, 2.0]).rolling(5).sum()
        assert all(np.isnan(v) for v in s.values)

    def test_rolling_invalid_window(self):
        with pytest.raises(ValueError):
            Series([1.0]).rolling(0)


class TestReshape:
    def frame(self):
        return DataFrame(
            {"k": ["a", "a", "b"], "x": [1, 2, 3], "y": [4, 5, 6]}
        )

    def test_melt_shape(self):
        out = self.frame().melt(id_vars=["k"])
        assert out.columns == ["k", "variable", "value"]
        assert len(out) == 6

    def test_melt_values_align(self):
        out = self.frame().melt(id_vars=["k"], value_vars=["x"])
        assert out["value"].to_list() == [1, 2, 3]
        assert set(out["variable"].to_list()) == {"x"}

    def test_pivot_table_sum(self):
        frame = DataFrame(
            {"r": ["p", "p", "q"], "c": ["u", "v", "u"], "v": [1.0, 2.0, 3.0]}
        )
        out = frame.pivot_table("v", "r", "c", "sum")
        assert out.columns == ["r", "u", "v"]
        assert out["u"].to_list() == [1.0, 3.0]

    def test_pivot_table_missing_cells_nan(self):
        frame = DataFrame(
            {"r": ["p", "q"], "c": ["u", "v"], "v": [1.0, 2.0]}
        )
        out = frame.pivot_table("v", "r", "c", "mean")
        assert np.isnan(out["v"].values[0])  # (p, v) never observed


class TestCli:
    def test_list(self, capsys):
        from repro.workloads.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nyt" in out and "stu" in out

    def test_run_single_cell(self, capsys):
        from repro.workloads.cli import main

        code = main(
            ["run", "zip", "--mode", "pandas", "--size", "S",
             "--rows", "500", "--no-budget"]
        )
        assert code == 0
        assert "zip/pandas/S: ok" in capsys.readouterr().out

    def test_run_takes_every_registered_strategy(self):
        """``--strategy`` / ``--source-format`` choices come from the
        strategy and format tables, so no strategy is missing."""
        from repro.graph.scheduler import STRATEGIES
        from repro.workloads.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "zip", "--strategy", "fused",
                                  "--source-format", "columnar"])
        assert (args.strategy, args.source_format) == ("fused", "columnar")
        for strategy in sorted(STRATEGIES):
            args = parser.parse_args(["run", "zip", "--strategy", strategy])
            assert args.strategy == strategy

    def test_verify_single_program(self, capsys):
        from repro.workloads.cli import main

        code = main(["verify", "env", "--rows", "500"])
        assert code == 0
        assert "env: ok" in capsys.readouterr().out
