"""Integration: the ten benchmark programs across all six modes.

The paper's regression framework (section 5.2): every (program, mode)
combination must produce a result whose md5 equals the unoptimized-pandas
reference.
"""

import pytest

from repro.workloads.programs import PROGRAMS
from repro.workloads.runner import Runner
from repro.workloads.verify import verify_program


@pytest.fixture(scope="module")
def runner():
    r = Runner(base_rows=1200, enforce_budget=False)
    r.prepare(["S"])
    yield r
    r.cleanup()


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_all_modes_hash_identical(runner, program):
    report = verify_program(runner, program, size="S")
    assert report.ok, f"{program}: {report.failures}"


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_lafp_pandas_runs_and_reports_optimizations(runner, program):
    result = runner.run(program, "lafp_pandas", "S")
    assert result.ok, result.error
    assert result.seconds > 0
    assert result.peak_bytes > 0


def test_program_inventory_matches_paper(runner):
    assert sorted(PROGRAMS) == [
        "ais", "cty", "dso", "emp", "env", "fdb", "mov", "nyt", "stu", "zip",
    ]


def test_every_program_saves_a_result(runner):
    for program in sorted(PROGRAMS):
        result = runner.run(program, "pandas", "S")
        assert result.result_hash is not None, program


def test_join_programs_read_only_the_columns_they_use(runner, monkeypatch):
    """Column selection passes through the merges of ``fdb`` and ``mov``:
    every scan of their optimized plans is narrowed."""
    import os

    import repro.core.optimizer as optimizer
    from repro.graph import collect_subgraph

    widths = {}
    optimize = optimizer.optimize

    def recording(roots, session, live_nodes=None):
        report = optimize(roots, session, live_nodes=live_nodes)
        for node in collect_subgraph(list(roots)):
            if node.op == "scan":
                name = os.path.basename(node.args["path"])
                columns = node.args.get("columns")
                widths[name] = None if columns is None else len(columns)
        return report

    monkeypatch.setattr(optimizer, "optimize", recording)
    for program in ("fdb", "mov"):
        result = runner.run(program, "lafp_pandas", "S")
        assert result.ok, result.error
    assert widths == {"orders.csv": 3, "items.csv": 3,
                      "ratings.csv": 2, "movies.csv": 2}


@pytest.mark.parametrize("program", ["ais", "dso"])
def test_dask_mode_peaks_no_higher_than_pandas_mode(runner, program):
    """The partition cut is for memory (Fig. 15): a dedup and a top-n
    recombine their pieces instead of gathering them."""
    peaks = {mode: runner.run(program, mode, "S").peak_bytes
             for mode in ("lafp_pandas", "lafp_dask")}
    assert peaks["lafp_dask"] <= peaks["lafp_pandas"], peaks


def test_stdout_captured_not_leaked(runner, capsys):
    runner.run("cty", "lafp_dask", "S")
    assert capsys.readouterr().out == ""


class TestSchedulerStrategies:
    """All three executor strategies reproduce the same paper results."""

    @pytest.mark.parametrize("mode", ["lafp_pandas", "lafp_dask"])
    @pytest.mark.parametrize("program", ["nyt", "stu", "mov"])
    def test_strategies_hash_identical_on_paper_workloads(
        self, runner, program, mode
    ):
        hashes = {}
        for strategy in ("serial", "threaded", "fused"):
            result = runner.run(program, mode, "S", strategy=strategy)
            assert result.ok, f"{strategy}: {result.error}"
            assert result.strategy == strategy
            hashes[strategy] = result.result_hash
        assert hashes["threaded"] == hashes["serial"]
        assert hashes["fused"] == hashes["serial"]

    def test_run_result_carries_scheduler_stats(self, runner):
        result = runner.run("nyt", "lafp_pandas", "S", strategy="threaded")
        assert result.ok, result.error
        stats = result.execution_stats
        assert stats is not None
        assert stats["effective_strategy"] == "threaded"
        assert stats["nodes_executed"] > 0
        assert stats["nodes"][0]["op"]
        # the whole record serializes (the runner's result JSON)
        import json

        json.dumps(result.to_dict())

    def test_baseline_modes_report_no_graph_stats(self, runner):
        result = runner.run("nyt", "pandas", "S")
        assert result.ok
        assert result.execution_stats is None

    def test_result_strategy_reports_what_actually_ran(self, runner):
        """The RunResult reports the strategy that ran, on every engine:
        the Dask engine's per-partition plan runs threaded too."""
        result = runner.run("nyt", "lafp_dask", "S", strategy="threaded")
        assert result.ok, result.error
        assert result.strategy == "threaded"
        assert result.execution_stats["strategy"] == "threaded"
        assert result.execution_stats["effective_strategy"] == "threaded"

    def test_concurrent_cells_do_not_race_on_paths(self, runner):
        """The env-var and redirect seams are gone: two cells running
        concurrently in one process keep their own dataset/result
        directories and their own captured stdout, and the process
        stdout comes back afterwards."""
        import sys
        import threading

        stdout_before = sys.stdout
        results = {}

        def cell(program):
            results[program] = runner.run(program, "lafp_pandas", "S")

        threads = [threading.Thread(target=cell, args=(p,))
                   for p in ("nyt", "stu")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sys.stdout is stdout_before
        assert results["nyt"].ok, results["nyt"].error
        assert results["stu"].ok, results["stu"].error
        assert results["nyt"].result_hash != results["stu"].result_hash
        # nyt prints its grouped result; the output landed in *its*
        # capture, not the other cell's
        assert results["nyt"].stdout.strip()
        assert results["nyt"].stdout != results["stu"].stdout


class TestSourceFormats:
    """The --source-format axis: same program, different physical bytes,
    identical results -- with and without pushdown folding."""

    @pytest.mark.parametrize("source_format", ["jsonl", "dataset", "columnar"])
    @pytest.mark.parametrize("program", ["cty", "stu"])
    def test_variants_hash_identical_to_csv(
        self, runner, program, source_format
    ):
        baseline = runner.run(program, "lafp_pandas", "S")
        variant = runner.run(program, "lafp_pandas", "S",
                             source_format=source_format)
        assert baseline.ok and variant.ok, (baseline.error, variant.error)
        assert variant.source_format == source_format
        assert variant.result_hash == baseline.result_hash

    @pytest.mark.parametrize("program", ["cty", "nyt", "stu"])
    def test_columnar_cold_and_warm_hash_identical_to_csv(
        self, runner, program
    ):
        """The columnar variant through the result cache: the cold run
        (footer reads + chunk fetches, cache inserts) and the warm run
        (``from_cached`` substitution keyed on the footer's stat
        signature) must both reproduce the CSV hash."""
        baseline = runner.run(program, "lafp_pandas", "S")
        assert baseline.ok, baseline.error
        options = {"optimizer.reuse": True}
        cold = runner.run(program, "lafp_pandas", "S",
                          source_format="columnar", options=options)
        warm = runner.run(program, "lafp_pandas", "S",
                          source_format="columnar", options=options)
        assert cold.ok and warm.ok, (cold.error, warm.error)
        assert cold.result_hash == baseline.result_hash
        assert warm.result_hash == baseline.result_hash

    @pytest.mark.parametrize("program", ["cty", "stu"])
    def test_columnar_pushdown_ablation_equivalence(self, runner, program):
        folded = runner.run(program, "lafp_pandas", "S",
                            source_format="columnar")
        ablated = runner.run(
            program, "lafp_pandas", "S", source_format="columnar",
            options={
                "optimizer.predicate_pushdown": False,
                "optimizer.partition_pruning": False,
            },
        )
        assert folded.ok and ablated.ok, (folded.error, ablated.error)
        assert folded.result_hash == ablated.result_hash

    def test_columnar_variant_on_dask_backend(self, runner):
        baseline = runner.run("cty", "lafp_dask", "S")
        variant = runner.run("cty", "lafp_dask", "S",
                             source_format="columnar")
        assert baseline.ok and variant.ok, (baseline.error, variant.error)
        assert variant.result_hash == baseline.result_hash

    @pytest.mark.parametrize("program", ["cty", "nyt", "stu"])
    def test_pushdown_folding_equivalence_on_paper_workloads(
        self, runner, program
    ):
        """Folding pushdown into the scan (and pruning on its stats)
        must never change a paper workload's result."""
        folded = runner.run(program, "lafp_pandas", "S",
                            source_format="dataset")
        ablated = runner.run(
            program, "lafp_pandas", "S", source_format="dataset",
            options={
                "optimizer.predicate_pushdown": False,
                "optimizer.partition_pruning": False,
            },
        )
        assert folded.ok and ablated.ok, (folded.error, ablated.error)
        assert folded.result_hash == ablated.result_hash

    def test_dataset_variant_on_dask_backend(self, runner):
        baseline = runner.run("cty", "lafp_dask", "S")
        variant = runner.run("cty", "lafp_dask", "S",
                             source_format="dataset")
        assert baseline.ok and variant.ok, (baseline.error, variant.error)
        assert variant.result_hash == baseline.result_hash
