"""Tests for the explicit Session/Engine API and the option layer.

Covers the tentpole redesign: thread-local session stacks, nestable
``option_context``, per-session engines (two threads on different
backends at once), ``collect()`` / ``persist()``, and the deprecation
shims for the retired process-global API.
"""

import ast
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.backends import ENGINES
from repro.core.config import OPTION_TABLE, OptionError, SessionOptions
from repro.core.session import (
    Session,
    current_session,
    reset_root_session,
    root_session,
)


@pytest.fixture
def numbers_csv(make_csv):
    n = 60
    return make_csv(
        {
            "x": np.arange(n) - 10,          # negatives filtered out below
            "y": np.arange(n) % 7,
            "tag": np.array([f"t{i % 3}" for i in range(n)], dtype=object),
        },
        "numbers.csv",
    )


class TestSessionStack:
    def test_root_session_is_default(self):
        assert current_session() is root_session()

    def test_with_block_pushes_and_pops(self):
        before = current_session()
        with Session(backend="pandas") as inner:
            assert current_session() is inner
            with Session(backend="modin") as innermost:
                assert current_session() is innermost
            assert current_session() is inner
        assert current_session() is before

    def test_stack_unwinds_on_exception(self):
        before = current_session()
        with pytest.raises(RuntimeError):
            with Session(backend="pandas"):
                raise RuntimeError("boom")
        assert current_session() is before

    def test_out_of_order_deactivate_pops_through(self):
        """Deactivating an outer session pops orphans above it (with a
        warning) so the stack never wedges on a dead scope."""
        before = current_session()
        outer = Session(backend="pandas").activate()
        Session(backend="modin").activate()  # orphan, never deactivated
        with pytest.warns(RuntimeWarning, match="out of order"):
            outer.deactivate()
        assert current_session() is before
        with pytest.raises(RuntimeError):
            outer.deactivate()  # no longer on the stack

    def test_exit_cleans_up_orphan_activations(self):
        """A scope that leaks a bare activate() (taskgraph_tour style)
        must not wedge the enclosing with-block's exit."""
        before = current_session()
        with pytest.warns(RuntimeWarning, match="out of order"):
            with Session(backend="pandas"):
                Session(backend="modin").activate()  # never deactivated
        assert current_session() is before

    def test_facade_binds_to_active_session(self, numbers_csv):
        with Session(backend="pandas") as session:
            frame = lfp.read_csv(numbers_csv)
            assert frame.session is session
        # collect() works after the block: binding happened at build time
        assert len(frame.collect()) == 60

    def test_concat_and_to_datetime_bind_to_input_session(self, numbers_csv):
        """Module-level combinators follow their inputs' session, not
        whatever is current at call time."""
        with Session(backend="pandas") as session:
            frame = lfp.read_csv(numbers_csv)
        combined = lfp.concat([frame, frame])
        assert combined.session is session
        converted = lfp.to_datetime(frame["tag"])
        assert converted.session is session

    def test_reset_root_session_does_not_touch_active_stack(self):
        with Session(backend="pandas") as session:
            reset_root_session("modin")
            assert current_session() is session
        assert root_session().backend_name == "modin"

    def test_reset_root_session_honours_options_backend(self):
        session = reset_root_session(options={"backend.engine": "pandas"})
        assert session.backend_name == "pandas"

    def test_session_exit_flushes_pending_prints(self, capsys):
        from repro.lazyfatpandas.func import print as lazy_print

        with Session(backend="pandas"):
            frame = lfp.DataFrame({"x": [1, 2, 3]})
            lazy_print("total:", frame.x.sum())
            assert capsys.readouterr().out == ""
        assert capsys.readouterr().out.strip() == "total: 6"

    def test_session_exit_skips_flush_on_exception(self, capsys):
        from repro.lazyfatpandas.func import print as lazy_print

        with pytest.raises(RuntimeError):
            with Session(backend="pandas"):
                frame = lfp.DataFrame({"x": [1]})
                lazy_print("never", frame.x.sum())
                raise RuntimeError("boom")
        assert capsys.readouterr().out == ""

    def test_exit_flush_sees_enclosing_option_context(self, numbers_csv):
        """Regression (runner ordering): overrides applied via an
        option_context that encloses the session must still govern the
        lazy prints drained at session exit."""
        from repro.lazyfatpandas.func import print as lazy_print

        session = Session(backend="pandas")
        with session.option_context("optimizer.projection_pushdown", False):
            with session:
                frame = lfp.read_csv(numbers_csv)
                lazy_print(frame[["y"]].head(1))
        assert session.last_optimize_report["projection"] == 0

    def test_marker_string_resolves_across_sessions(self, capsys):
        """Regression: an f-string built inside a session block must
        print correctly after the block exits.  The print queues on the
        *current* session (so pd.flush() reaches it -- output is never
        stranded on the exited session); the marker resolves through
        the cross-session node map."""
        from repro.lazyfatpandas.func import print as lazy_print

        with Session(backend="pandas") as inner:
            frame = lfp.DataFrame({"x": [2, 4]})
            message = f"avg: {frame.x.mean()}"
        assert inner is not None  # owning session must stay alive
        lazy_print(message)
        assert capsys.readouterr().out == ""
        lfp.flush()  # drains the *current* (root) session
        assert capsys.readouterr().out.strip() == "avg: 3.0"
        assert not inner.pending_prints  # nothing stranded inside

    def test_print_mixes_lazy_arg_with_foreign_marker(self, capsys):
        """Regression: a print mixing a lazy value from one session with
        a marker string built in another must resolve both."""
        from repro.lazyfatpandas.func import print as lazy_print

        with Session(backend="pandas") as first:
            marker = f"{lfp.DataFrame({'a': [1, 2]}).a.sum()}"
        assert first is not None  # the owning session must stay alive
        with Session(backend="pandas"):
            other = lfp.DataFrame({"b": [5]}).b.sum()
            lazy_print("mix:", other, marker)
            lfp.flush()
        assert capsys.readouterr().out.strip() == "mix: 5 3"

    def test_explain_preserves_last_optimize_report(self, numbers_csv):
        with Session(backend="pandas") as session:
            frame = lfp.read_csv(numbers_csv)
            frame[["y"]].collect()
            report = session.last_optimize_report
            lfp.DataFrame({"z": [1]}).explain()
            assert session.last_optimize_report is report

    def test_alias_backend_engine_assignment_reaches_reset(self):
        """Regression: assigning BACKEND_ENGINE on the paper-verbatim
        alias module must be visible to pd.reset()'s default."""
        import lazyfatpandas.pandas as alias

        alias.BACKEND_ENGINE = alias.BackendEngines.PANDAS
        try:
            alias.reset()
            assert root_session().backend_name == "pandas"
        finally:
            alias.BACKEND_ENGINE = alias.BackendEngines.DASK

    def test_backend_engine_mirrors_both_directions(self):
        """Regression: the canonical and alias modules must never
        disagree about BACKEND_ENGINE, whichever one was assigned."""
        import lazyfatpandas.pandas as alias

        try:
            lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
            assert alias.BACKEND_ENGINE is lfp.BackendEngines.PANDAS
            alias.BACKEND_ENGINE = alias.BackendEngines.MODIN
            assert lfp.BACKEND_ENGINE is lfp.BackendEngines.MODIN
        finally:
            lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK
            assert alias.BACKEND_ENGINE is lfp.BackendEngines.DASK

    def test_alias_modules_are_the_canonical_modules(self):
        """The paper-verbatim import names the canonical module object,
        so ``BACKEND_ENGINE`` has one module to live on."""
        import lazyfatpandas.func
        import lazyfatpandas.pandas

        import repro.lazyfatpandas.func

        assert lazyfatpandas.pandas is lfp
        assert lazyfatpandas.func is repro.lazyfatpandas.func


class TestOptions:
    def test_defaults(self):
        session = Session()
        assert session.get_option("backend.engine") == "dask"
        assert session.get_option("optimizer.predicate_pushdown") is True
        assert session.get_option("executor.cache") is True

    def test_describe_options_is_the_option_table(self):
        """Every key of the option table is listed with its default (the
        hand-kept docstring copy had lost the ``io.*`` options)."""
        defaults = SessionOptions().to_dict()
        assert "io.prefetch" in defaults
        text = lfp.describe_options()
        for key, default in defaults.items():
            assert f"{key} (default: {default!r})" in text
        headings = [line for line in text.splitlines()
                    if not line.startswith(" ")]
        assert len(headings) == len(defaults)

    @pytest.mark.parametrize("call", ["set", "get", "context"])
    @pytest.mark.parametrize("key", ["io.prefech", "io.retires"])
    def test_mistyped_io_key_raises(self, call, key):
        """``io`` is a pandas namespace and LaFP's own: a key as deep as
        LaFP's ``io.*`` keys is a mistyped LaFP key, not a pandas no-op."""
        with pytest.raises(OptionError):
            if call == "set":
                lfp.set_option(key, False)
            elif call == "get":
                lfp.get_option(key)
            else:
                lfp.option_context(key, False)
        assert lfp.get_option("io.prefetch") is True

    @pytest.mark.parametrize("key", [
        "io.parquet.engine", "io.hdf.default_format", "io.excel.xlsx.writer",
    ])
    def test_deeper_pandas_io_keys_stay_tolerated(self, key):
        with pytest.warns(UserWarning, match="ignoring pandas-compat"):
            lfp.set_option(key, "auto")
        assert lfp.get_option(key) is None

    @pytest.mark.parametrize("key", [
        "io.parquet.engine", "io.hdf.default_format", "io.excel.xlsx.writer",
        "display.html.border",
    ])
    def test_attribute_form_tolerates_deeper_pandas_io_keys(self, key):
        """``pd.options.io.parquet.engine = ...`` is what
        ``set_option("io.parquet.engine", ...)`` is: a warned no-op, and
        the key reads ``None`` -- at any depth: a pandas option group
        (``io.excel.xlsx``, ``display.html``) is a namespace, not a
        ``None`` read."""
        *groups, leaf = key.split(".")
        with pytest.warns(UserWarning, match="ignoring pandas-compat"):
            namespace = lfp.options
            for group in groups:
                namespace = getattr(namespace, group)
            setattr(namespace, leaf, "auto")
        assert getattr(namespace, leaf) is None
        assert lfp.get_option(key) is None

    def test_attribute_form_warns_on_a_pandas_display_key(self):
        with pytest.warns(UserWarning, match="ignoring pandas-compat"):
            lfp.options.display.max_rows = 1
        assert lfp.options.display.max_rows is None

    def test_attribute_form_raises_on_a_mistyped_io_key(self):
        """A key as deep as LaFP's own ``io.*`` keys is a mistyped LaFP
        key in the attribute form too: assigning it raises, and so does
        using what reading it gives as a value."""
        with pytest.raises(OptionError):
            lfp.options.io.prefetchh = False
        typo = lfp.options.io.prefetchh
        with pytest.raises(OptionError):
            bool(typo)
        with pytest.raises(OptionError):
            typo == False  # noqa: E712
        with pytest.raises(OptionError):
            lfp.get_option("io.prefetchh")
        assert lfp.options.io.prefetch is True

    @pytest.mark.parametrize("key, value", [
        ("io.retries", 2),
        ("io.retry_backoff", 0.005),
        ("cache.budget", 64 << 20),
        ("cache.spill_budget", 256 << 20),
        ("executor.process_start_method", "spawn"),
        ("executor.max_workers", "auto"),
    ])
    def test_removed_options_are_rejected(self, key, value):
        """Settings only one value was ever used for are constants of
        the module that reads them, not options."""
        with pytest.raises(OptionError):
            Session(options={key: value})

    @pytest.mark.parametrize("spec", list(OPTION_TABLE.values()),
                             ids=lambda spec: spec.key)
    def test_every_default_passes_its_own_check(self, spec):
        spec.check(spec.default)

    def test_the_table_is_immutable(self):
        with pytest.raises(TypeError):
            OPTION_TABLE["executor.cache"] = OPTION_TABLE["io.prefetch"]

    def test_constructor_overrides(self):
        session = Session(
            backend="pandas", options={"optimizer.metadata": False}
        )
        assert session.backend_name == "pandas"
        assert session.get_option("optimizer.metadata") is False

    def test_unknown_key_rejected(self):
        session = Session()
        with pytest.raises(OptionError):
            session.set_option("optimizer.typo", True)
        with pytest.raises(OptionError):
            session.get_option("no.such.key")

    def test_validated_values(self):
        session = Session()
        with pytest.raises(OptionError):
            session.set_option("executor.cache", "yes")
        with pytest.raises(OptionError):
            session.set_option("executor.max_workers", "many")

    def test_option_context_nests_and_restores(self):
        session = Session()
        with session.option_context("optimizer.metadata", False):
            assert session.get_option("optimizer.metadata") is False
            with session.option_context(
                "optimizer.metadata", True, "executor.cache", False
            ):
                assert session.get_option("optimizer.metadata") is True
                assert session.get_option("executor.cache") is False
            assert session.get_option("optimizer.metadata") is False
            assert session.get_option("executor.cache") is True
        assert session.get_option("optimizer.metadata") is True

    def test_option_context_restores_on_exception(self):
        session = Session()
        with pytest.raises(ValueError):
            with session.option_context("executor.cache", False):
                raise ValueError("boom")
        assert session.get_option("executor.cache") is True

    def test_option_context_accepts_mapping(self):
        session = Session()
        with session.option_context({"executor.cache": False}):
            assert session.get_option("executor.cache") is False
        assert session.get_option("executor.cache") is True

    def test_module_level_proxy_follows_current_session(self):
        with Session(backend="pandas"):
            lfp.options.optimizer.predicate_pushdown = False
            assert (
                current_session().get_option("optimizer.predicate_pushdown")
                is False
            )
        # the outer (root) session was never touched
        assert lfp.options.optimizer.predicate_pushdown is True
        assert lfp.options.backend.engine == "pandas"  # conftest root

    def test_facade_set_option_tolerates_pandas_display_keys(self):
        lfp.set_option("display.max_rows", 10)  # must not raise
        with pytest.raises(OptionError):
            lfp.set_option("optimizer.not_a_rule", True)

    def test_facade_set_option_validates_values(self):
        """A bad value for an LaFP key must raise through the facade,
        not be swallowed like a foreign pandas option."""
        with pytest.raises(OptionError):
            lfp.set_option("executor.cache", "not-a-bool")
        lfp.set_option("executor.cache", False)
        assert current_session().get_option("executor.cache") is False

    def test_facade_set_option_rejects_typoed_roots(self):
        """Regression: a typo'd LaFP namespace must raise, not no-op."""
        with pytest.raises(OptionError):
            lfp.set_option("optimzer.predicate_pushdown", False)
        assert (
            current_session().get_option("optimizer.predicate_pushdown")
            is True
        )

    def test_options_proxy_tolerates_pandas_display_namespace(self):
        """The ``pd.options.display.max_rows = 500`` idiom of unmodified
        pandas scripts must be a harmless no-op, matching set_option."""
        lfp.options.display.max_rows = 500  # must not raise
        _ = lfp.options.display.max_rows
        with pytest.raises(AttributeError):
            lfp.options.optimzer  # typo'd root still errors

    def test_facade_set_option_accepts_mapping(self):
        """set_option shares option_context's accepted call shapes."""
        lfp.set_option({"executor.cache": False})
        assert current_session().get_option("executor.cache") is False
        lfp.set_option("executor.cache", True, "optimizer.metadata", False)
        assert current_session().get_option("executor.cache") is True
        assert current_session().get_option("optimizer.metadata") is False

    def test_pandas_shorthand_and_paired_compat_calls(self):
        """pandas' bare shorthand keys and the get/set/context trio must
        all tolerate foreign options consistently."""
        lfp.set_option("max_columns", None)  # pandas shorthand: no-op
        assert lfp.get_option("display.max_rows") is None
        with lfp.option_context("display.max_rows", 5):
            pass  # dropped, not an error
        # LaFP keys still work through the same paths
        assert lfp.get_option("executor.cache") is True
        with lfp.option_context("executor.cache", False):
            assert lfp.get_option("executor.cache") is False

    def test_reset_accepts_string_backend_engine(self):
        """Regression: pd.reset() after a plain-string BACKEND_ENGINE
        assignment must not crash on the missing .value attribute."""
        lfp.BACKEND_ENGINE = "pandas"
        try:
            lfp.reset()
            assert root_session().backend_name == "pandas"
        finally:
            lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK

    def test_reset_preserves_set_backend_choice(self):
        """Regression: reset() must keep a backend chosen through the
        new API (set_backend/set_option), not fall back to the stale
        BACKEND_ENGINE module global."""
        try:
            lfp.set_backend("modin")
            assert lfp.BACKEND_ENGINE is lfp.BackendEngines.MODIN
            lfp.reset()
            assert root_session().backend_name == "modin"
        finally:
            lfp.set_backend("dask")

    def test_reset_sees_scoped_backend_engine_assignment(self):
        """Regression: a BACKEND_ENGINE assignment made while a scoped
        session was current must still drive reset()'s default."""
        try:
            with Session(backend="dask"):
                lfp.BACKEND_ENGINE = lfp.BackendEngines.PANDAS
            lfp.reset()
            assert root_session().backend_name == "pandas"
        finally:
            lfp.set_backend("dask")

    def test_session_exit_flushes_on_system_exit(self, capsys):
        """A program calling sys.exit() still gets its deferred output
        (the runner treats SystemExit as normal completion)."""
        from repro.lazyfatpandas.func import print as lazy_print

        with pytest.raises(SystemExit):
            with Session(backend="pandas"):
                frame = lfp.DataFrame({"x": [4, 5]})
                lazy_print("exiting:", frame.x.sum())
                raise SystemExit(0)
        assert capsys.readouterr().out.strip() == "exiting: 9"

    def test_foreign_options_read_as_none(self):
        assert lfp.options.display.max_rows is None
        assert lfp.options.mode.chained_assignment is None

    def test_pandas_future_namespace_tolerated(self):
        """Common modern-pandas line must not raise."""
        with pytest.warns(UserWarning, match="pandas-compat"):
            lfp.set_option("future.no_silent_downcasting", True)
        lfp.options.future.no_silent_downcasting = True  # proxy too

    def test_facade_option_context(self, numbers_csv):
        with Session(backend="pandas"):
            frame = lfp.read_csv(numbers_csv)
            with lfp.option_context("optimizer.projection_pushdown", False):
                frame[["y"]].collect()
                report = current_session().last_optimize_report
        assert report["projection"] == 0


class TestEngines:
    def test_backend_option_resolves_engine(self):
        session = Session(backend="pandas")
        assert session.backend is ENGINES["pandas"]
        assert session.backend.name == "pandas"

    def test_no_staleness_after_option_change(self):
        """Regression: options set after construction (or after the first
        backend access) must be honoured -- the old cached module-level
        backend lookup could hand out a stale instance."""
        session = Session(backend="pandas")
        _ = session.backend  # prime the cache
        session.set_option("backend.engine", "modin")
        assert session.backend.name == "modin"
        session.set_backend("pandas")
        assert session.backend.name == "pandas"

    def test_engine_instance_is_shared(self):
        """A backend holds no state: every session on an engine runs
        its one instance, switching away and back included."""
        a = Session(backend="dask")
        b = Session(backend="dask")
        assert a.backend is b.backend is ENGINES["dask"]
        a.set_backend("pandas")
        assert a.backend is ENGINES["pandas"]
        a.set_backend("dask")
        assert a.backend is b.backend

    def test_unknown_engine_raises_value_error(self):
        session = Session()
        session.set_backend("spark")
        with pytest.raises(ValueError):
            _ = session.backend

    def test_capability_descriptors(self):
        assert ENGINES["dask"].out_of_core
        assert not ENGINES["pandas"].out_of_core
        assert not ENGINES["modin"].out_of_core


class TestConcurrentSessions:
    def test_two_threads_two_backends(self, numbers_csv):
        """Two threads, each with its own session on a different backend
        and different optimizer options, collect concurrently with
        correct, isolated results."""
        barrier = threading.Barrier(2)
        results, errors = {}, []

        def work(name, backend, cache):
            try:
                with Session(
                    backend=backend, options={"executor.cache": cache}
                ) as session:
                    frame = lfp.read_csv(numbers_csv)
                    positive = frame[frame.x > 0]
                    barrier.wait(timeout=10)
                    for _ in range(5):
                        value = positive.y.sum().collect()
                        results.setdefault(name, []).append(int(value))
                    results[f"{name}-backend"] = session.backend.name
                    results[f"{name}-cache"] = session.get_option(
                        "executor.cache"
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((name, exc))

        threads = [
            threading.Thread(target=work, args=("a", "pandas", True)),
            threading.Thread(target=work, args=("b", "dask", False)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        expected = sum(i % 7 for i in range(60) if i - 10 > 0)
        assert results["a"] == [expected] * 5
        assert results["b"] == [expected] * 5
        assert results["a-backend"] == "pandas"
        assert results["b-backend"] == "dask"
        assert results["a-cache"] is True
        assert results["b-cache"] is False

    def test_thread_without_session_falls_back_to_root(self):
        seen = {}

        def work():
            seen["session"] = current_session()

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert seen["session"] is root_session()


class TestCollectPersistExplain:
    def test_collect_equals_compute(self, numbers_csv):
        with Session(backend="pandas"):
            frame = lfp.read_csv(numbers_csv)
            assert (
                frame.y.sum().collect() == frame.y.sum().compute()
            )

    def test_persist_pins_and_reuses(self, numbers_csv, monkeypatch):
        from repro.backends import base

        calls = []
        original = base._scan

        def counting(args):
            calls.append(1)
            return original(args)

        monkeypatch.setattr(base, "_scan", counting)
        # serial: the patched reader counts in this process only
        with Session(backend="pandas",
                     options={"executor.strategy": "serial"}):
            frame = lfp.read_csv(numbers_csv)
            positive = frame[frame.x > 0].persist()
            assert positive.node.persist
            assert positive.node.result is not None
            # keep `positive` live so the pin survives this collect
            positive.y.sum().collect(live=[positive])
            # last use: the pin is reused, then released (section 3.5)
            positive.y.mean().collect()
        # one read: every collect reused the pinned filter result
        assert sum(calls) == 1

    def test_persist_returns_self_for_chaining(self, numbers_csv):
        with Session(backend="pandas"):
            frame = lfp.read_csv(numbers_csv)
            positive = frame[frame.x > 0]
            assert positive.persist() is positive


class TestRecollect:
    """A collect of a root that still holds its result plans nothing
    (no gate, no copy, no optimize): everything a collect promises
    besides planning must be exactly what it was."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """How many times a collect reached the optimizer."""
        from repro.core.optimizer import pipeline

        calls = []
        real = pipeline.optimize

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.core.optimizer.optimize", counting)
        return calls

    def test_recollect_skips_planning_and_keeps_the_books(
        self, numbers_csv, planned
    ):
        with Session(backend="pandas") as session:
            total = lfp.read_csv(numbers_csv).y.sum()
            first = total.collect()
            report = session.last_optimize_report
            executed = session.stats["nodes_executed"]
            assert total.collect() == first
            assert len(planned) == 1
            assert session.stats["computes"] == 2
            assert session.stats["nodes_executed"] == executed
            assert session.last_execution_stats.nodes_executed == 0
            # no optimize ran, so the last report is still the last one
            assert session.last_optimize_report is report

    def test_pending_prints_flush_once(self, numbers_csv, planned, capsys):
        from repro.lazyfatpandas.func import print as lazy_print

        with Session(backend="pandas") as session:
            total = lfp.read_csv(numbers_csv).y.sum()
            first = total.collect()
            lazy_print("between")
            assert capsys.readouterr().out == ""
            assert total.collect() == first  # a print is pending: planned
            assert capsys.readouterr().out == "between\n"
            assert not session.pending_prints
            assert total.collect() == first
            assert capsys.readouterr().out == ""
        assert capsys.readouterr().out == ""  # nothing left for the exit
        assert len(planned) == 2

    def test_live_df_still_pins_and_plain_recollect_still_releases(
        self, numbers_csv, planned
    ):
        with Session(backend="pandas") as session:
            frame = lfp.read_csv(numbers_csv)
            positive = frame[frame.x > 0]
            total = positive.y.sum()
            first = total.collect()
            # a pin request over a root that already holds its value:
            # nothing under it runs, so nothing is pinned or planned
            assert total.collect(live=[positive]) == first
            assert len(planned) == 1
            assert session.last_execution_stats.nodes_executed == 0
            assert not positive.node.persist
            assert session.persisted == []
            # live= on a run that computes the live frame pins it
            mean = positive.y.mean()
            expected = mean.collect(live=[positive])
            assert len(planned) == 2
            assert positive.node.persist
            assert positive.node in session.persisted
            # the next collect names nothing live: handed back without
            # planning, and the pins are released after it (section 3.5)
            assert mean.collect() == expected
            assert len(planned) == 2
            assert not positive.node.persist
            assert session.persisted == []

    def test_cleared_result_is_recomputed(self, numbers_csv, planned):
        with Session(backend="pandas") as session:
            total = lfp.read_csv(numbers_csv).y.sum()
            first = total.collect()
            total.node.clear_result()
            assert total.collect() == first
            assert len(planned) == 2
            assert session.last_execution_stats.nodes_executed > 0

    def test_strict_gate_still_rejects_a_broken_plan(
        self, numbers_csv, planned
    ):
        from repro.analysis.plan import PlanValidationError

        with Session(backend="pandas",
                     options={"analysis.level": "strict"}) as session:
            bad = lfp.read_csv(numbers_csv)[["x", "missing"]]
            for _ in range(2):  # never computed, so never waved through
                with pytest.raises(PlanValidationError):
                    bad.collect()
            assert not planned and not bad.node.computed
            assert session.stats["computes"] == 0


class TestDeprecationShims:
    def test_no_get_session_call_sites_left_in_src(self):
        """Acceptance: nothing calls or defines the old entry points
        (the ``core/compat.py`` shims are gone too)."""
        import pathlib
        import repro
        import repro.core
        import repro.core.session

        src_root = pathlib.Path(repro.__file__).resolve().parent.parent
        offenders = [
            str(path) for path in src_root.rglob("*.py")
            if "get_session()" in path.read_text()
        ]
        assert offenders == []
        for module in (repro.core, repro.core.session):
            assert not hasattr(module, "get_session")
            assert not hasattr(module, "reset_session")

    def test_backend_engine_assignment_still_selects_backend(
        self, numbers_csv
    ):
        with Session(backend="pandas"):
            lfp.BACKEND_ENGINE = lfp.BackendEngines.MODIN
            assert current_session().backend_name == "modin"
            total = lfp.read_csv(numbers_csv).y.sum().collect()
            assert total == sum(i % 7 for i in range(60))
        lfp.BACKEND_ENGINE = lfp.BackendEngines.DASK


class TestOneOptionTable:
    """Invariant rule 17: every option read names a row of the table,
    and every row is read somewhere."""

    _TABLE = (
        "OPTION_TABLE = MappingProxyType({spec.key: spec for spec in (\n"
        "    OptionSpec('io.prefetch', True, _BOOL, 'read below'),\n"
        "    OptionSpec('io.dead', 1, _POSITIVE_INT, 'read nowhere'),\n"
        ")})\n"
    )
    _CLEAN = (
        "def f(session, opts):\n"
        "    session.get_option('io.prefetch')\n"
        "    source.options.get('parse_dates')  # a source's options\n"
    )

    @staticmethod
    def _tool():
        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_invariants.py")
        spec = importlib.util.spec_from_file_location("check_invariants",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def _failures(self, tool, module: str):
        return list(tool.check_one_option_table({
            "core/config.py": ast.parse(self._TABLE),
            "io/prefetch.py": ast.parse(module),
        }))

    def test_invariant_tool_rejects_reads_of_unknown_keys(self):
        tool = self._tool()
        for offender in (
            "session.get_option('io.retries')",
            "get_option('cache.budget')",
            "opts.get('executor.process_start_method')",
            "options.get('io.prefech')",
            "current_session().options.get('io.retry_backoff')",
        ):
            failures = self._failures(
                tool, self._CLEAN + offender + "\nopts.get('io.dead')\n")
            assert len(failures) == 1, offender
            assert "is not a row" in failures[0], offender

    def test_invariant_tool_rejects_a_dead_option(self):
        tool = self._tool()
        failures = self._failures(tool, self._CLEAN)
        assert len(failures) == 1 and "'io.dead'" in failures[0]
        assert "occurs nowhere else" in failures[0]
        assert not self._failures(tool, self._CLEAN + "DEAD = 'io.dead'\n")
        assert tool.run() == []
