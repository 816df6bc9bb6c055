"""Unit tests for the source rewrites and the JIT analyze() driver."""

import os
import runpy
import sys

import pytest

from repro.analysis.jit import optimize_source
from repro.analysis.rewrite import RewriteFlags, optimize_program

HEADER = "import repro.lazyfatpandas.pandas as pd\n"

FIG3 = (
    HEADER
    + "pd.analyze()\n"
    + "df = pd.read_csv('{path}', parse_dates=['tpep_pickup_datetime'])\n"
    + "df = df[df.fare_amount > 0]\n"
    + "df['day'] = df.tpep_pickup_datetime.dt.dayofweek\n"
    + "df = df.groupby(['day'])['passenger_count'].sum()\n"
    + "print(df)\n"
)


class TestColumnSelectionRewrite:
    def test_figure3_gets_usecols(self):
        out = optimize_source(FIG3.format(path="data.csv"))
        assert "usecols=" in out
        assert "'fare_amount'" in out
        assert "'passenger_count'" in out
        assert "'tpep_pickup_datetime'" in out
        # unused columns are not listed
        assert out.count("usecols=[") == 1

    def test_wildcard_prevents_usecols(self):
        src = HEADER + "df = pd.read_csv('d.csv')\nprint(df)\n"
        assert "usecols" not in optimize_source(src)

    def test_existing_usecols_untouched(self):
        src = (
            HEADER
            + "df = pd.read_csv('d.csv', usecols=['a', 'b'])\n"
            + "print(df['a'].sum())\n"
        )
        out = optimize_source(src)
        assert out.count("usecols") == 1

    def test_parse_dates_columns_folded_into_usecols(self):
        out = optimize_source(FIG3.format(path="d.csv"))
        start = out.index("usecols=[")
        segment = out[start:out.index("]", start)]
        assert "tpep_pickup_datetime" in segment

    def test_flag_disables_rewrite(self):
        flags = RewriteFlags(column_selection=False)
        out, report = optimize_program(FIG3.format(path="d.csv"), flags)
        assert "usecols" not in out
        assert report.usecols_added == 0


class TestShellRewrite:
    def test_analyze_call_removed(self):
        out = optimize_source(FIG3.format(path="d.csv"))
        assert "pd.analyze()" not in out

    def test_lazy_print_imported(self):
        out = optimize_source(FIG3.format(path="d.csv"))
        assert "from repro.lazyfatpandas.func import print" in out

    def test_flush_appended(self):
        out = optimize_source(FIG3.format(path="d.csv"))
        assert out.rstrip().endswith("pd.flush()")

    def test_plain_pandas_import_redirected(self):
        src = "import pandas as pd\ndf = pd.read_csv('d.csv')\nprint(df)\n"
        out = optimize_source(src)
        assert "repro.lazyfatpandas.pandas" in out

    def test_program_without_pandas_unchanged(self):
        src = "x = 1\nprint(x)\n"
        assert optimize_source(src) == src


class TestForcedComputeRewrite:
    SRC = (
        HEADER
        + "import repro.workloads.plotlib as plt\n"
        + "pd.analyze()\n"
        + "df = pd.read_csv('d.csv')\n"
        + "agg = df.groupby(['k'])['v'].sum()\n"
        + "plt.plot(agg)\n"
        + "m = df['v'].mean()\n"
        + "print(f'mean: {m}')\n"
    )

    def test_compute_inserted_with_live_df(self):
        out = optimize_source(self.SRC)
        assert "agg.compute(live_df=[df])" in out

    def test_non_lazy_args_untouched(self):
        src = (
            HEADER
            + "import repro.workloads.plotlib as plt\n"
            + "df = pd.read_csv('d.csv')\n"
            + "plt.savefig('out.png')\n"
            + "print(df['v'].sum())\n"
        )
        out = optimize_source(src)
        assert "'out.png'.compute" not in out
        assert "savefig('out.png')" in out

    def test_flag_disables(self):
        flags = RewriteFlags(forced_compute=False)
        out, report = optimize_program(self.SRC, flags)
        assert ".compute(" not in out
        assert report.computes_inserted == 0


class TestMetadataHintRewrite:
    def test_mutated_cols_annotated(self):
        src = (
            HEADER
            + "df = pd.read_csv('d.csv')\n"
            + "df['derived'] = df.a * 2\n"
            + "print(df['derived'].sum())\n"
        )
        out = optimize_source(src)
        assert "mutated_cols=['derived']" in out

    def test_no_mutations_empty_list(self):
        src = HEADER + "df = pd.read_csv('d.csv')\nprint(df['a'].sum())\n"
        out = optimize_source(src)
        assert "mutated_cols=[]" in out


class TestControlFlowPreserved:
    def test_rewrite_keeps_branches_and_loops(self):
        src = (
            HEADER
            + "import os\n"
            + "df = pd.read_csv('d.csv')\n"
            + "total = 0\n"
            + "for i in range(3):\n"
            + "    if i % 2 == 0:\n"
            + "        total += i\n"
            + "print(df['v'].sum() + total)\n"
        )
        out = optimize_source(src)
        assert "for i in range(3):" in out
        assert "if i % 2 == 0:" in out


class TestJit:
    def _write_program(self, tmp_path, taxi_csv):
        program = FIG3.format(path=taxi_csv)
        path = os.path.join(tmp_path, "prog.py")
        with open(path, "w") as f:
            f.write(program)
        return path

    def test_jit_executes_optimized_and_exits(self, tmp_path, taxi_csv, capsys):
        path = self._write_program(tmp_path, taxi_csv)
        import repro.lazyfatpandas.pandas as lfp

        lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(path, run_name="__main__")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "passenger_count" in out
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK

    def test_jit_measures_overhead(self, tmp_path, taxi_csv):
        from repro.analysis import jit

        path = self._write_program(tmp_path, taxi_csv)
        import repro.lazyfatpandas.pandas as lfp

        lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
        with pytest.raises(SystemExit):
            runpy.run_path(path, run_name="__main__")
        assert 0 < jit.last_analysis_seconds < 5
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK

    def test_optimized_program_does_not_reanalyze(self):
        # the guard flag makes analyze() a no-op inside optimized code
        from repro.analysis.jit import jit_analyze

        frame_globals = sys._getframe().f_globals
        frame_globals["__LAFP_OPTIMIZED__"] = True
        try:
            assert jit_analyze(depth=1) is None
        finally:
            del frame_globals["__LAFP_OPTIMIZED__"]

    def test_missing_source_warns_and_continues(self):
        import warnings
        from repro.analysis.jit import jit_analyze

        def call_without_file():
            namespace = {"__name__": "adhoc"}
            code = compile(
                "from repro.analysis.jit import jit_analyze\n"
                "result = jit_analyze(depth=1)\n",
                "<string>",
                "exec",
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                exec(code, namespace)  # noqa: S102
            return namespace["result"], caught

        result, caught = call_without_file()
        assert result is None
        assert any("source not found" in str(w.message) for w in caught)


class TestUnparseNeedsNoLocations:
    def test_programs_optimize_as_with_located_trees(self, monkeypatch):
        """Rewritten trees go to ``ast.unparse`` without a
        ``fix_missing_locations`` walk (a rebuilt ``for`` keeps its
        header's line, the one location unparse reads): the ten programs
        under the three LaFP headers, and one with every block statement,
        optimize to the same source as with the walk run first, and
        that source compiles."""
        import ast

        from repro.workloads.programs import PROGRAMS
        from repro.workloads.runner import _HEADERS

        sources = [
            _HEADERS[mode] + PROGRAMS[name].body_for("pandas")
            for mode in ("lafp_pandas", "lafp_modin", "lafp_dask")
            for name in sorted(PROGRAMS)
        ] + [HEADER + "pd.analyze()\n" + (
            "df = pd.read_csv('d.csv')\n"
            "for i in range(2):\n"
            "    for j in []:\n"
            "        x = 1  # type: int\n"
            "    print(df.a.sum())\n"
            "while False:\n    pass\n"
            "with open('d.csv') as f:\n    y = 1\n"
            "def g(a):\n    return a\n"
            "if df.a.sum() > 1:\n    print(1)\nelse:\n    print(2)\n"
        )]
        plain = [optimize_source(source) for source in sources]
        unparse = ast.unparse
        monkeypatch.setattr(
            ast, "unparse",
            lambda tree: unparse(ast.fix_missing_locations(tree)))
        assert [optimize_source(source) for source in sources] == plain
        assert len(plain) == 31 and "for i in range(2):" in plain[-1]
        for text in plain:
            compile(text, "<optimized>", "exec")


class TestOptimizedSourcesArePinned:
    #: per program, sha256 (first 16 hex digits) of ``optimize_source``
    #: over the program under every runner header, pandas body then dask
    #: body, headers in sorted order -- 120 optimized sources in all
    DIGESTS = {
        "ais": "67d167b0549a1c8a",
        "cty": "09faf1cc33f5619b",
        "dso": "b1dec14794890aef",
        "emp": "9a3c9486f47c4f06",
        "env": "f1e3c0f8ef8c4b66",
        "fdb": "fe065cb62f44d673",
        "mov": "4a7eeace33645051",
        "nyt": "169c2618643d8a47",
        "stu": "a3bf105b78b43bc9",
        "zip": "7170d8b4ed963fa5",
    }

    def test_programs_optimize_to_the_pinned_sources(self):
        """The JIT's analyses (liveness among them) may get faster, but
        the ten programs must rewrite to the same text."""
        import hashlib

        from repro.workloads.programs import PROGRAMS
        from repro.workloads.runner import _HEADERS

        got = {}
        for name in sorted(PROGRAMS):
            digest = hashlib.sha256()
            for mode in sorted(_HEADERS):
                for engine in ("pandas", "dask"):
                    digest.update(optimize_source(
                        _HEADERS[mode] + PROGRAMS[name].body_for(engine)
                    ).encode())
            got[name] = digest.hexdigest()[:16]
        assert got == self.DIGESTS
