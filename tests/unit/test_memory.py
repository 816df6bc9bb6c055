"""Unit tests for the simulated memory substrate."""

import gc
import threading

import pytest

from repro.memory import (
    MemoryManager,
    SimulatedMemoryError,
    TrackedBuffer,
    current_memory_manager,
)


class TestMemoryManager:
    def test_register_increases_live(self):
        manager = MemoryManager()
        manager.register(100)
        assert manager.live == 100

    def test_release_decreases_live(self):
        manager = MemoryManager()
        manager.register(100)
        manager.release(40)
        assert manager.live == 60

    def test_peak_tracks_high_water(self):
        manager = MemoryManager()
        manager.register(100)
        manager.release(100)
        manager.register(30)
        assert manager.peak == 100
        assert manager.live == 30

    def test_reset_peak_starts_from_current(self):
        manager = MemoryManager()
        manager.register(100)
        manager.release(80)
        manager.reset_peak()
        assert manager.peak == 20

    def test_budget_enforced(self):
        manager = MemoryManager(budget=100)
        manager.register(60)
        with pytest.raises(SimulatedMemoryError):
            manager.register(50)

    def test_budget_exactly_full_is_allowed(self):
        manager = MemoryManager(budget=100)
        manager.register(100)
        assert manager.live == 100

    def test_oom_counts(self):
        manager = MemoryManager(budget=10)
        with pytest.raises(SimulatedMemoryError):
            manager.register(11)
        assert manager.oom_count == 1

    def test_oom_is_memory_error(self):
        manager = MemoryManager(budget=10)
        with pytest.raises(MemoryError):
            manager.register(11)

    def test_oom_carries_diagnostics(self):
        manager = MemoryManager(budget=10)
        manager.register(4)
        with pytest.raises(SimulatedMemoryError) as exc:
            manager.register(20)
        assert exc.value.requested == 20
        assert exc.value.live == 4
        assert exc.value.budget == 10

    def test_headroom(self):
        manager = MemoryManager(budget=100)
        manager.register(30)
        assert manager.headroom() == 70

    def test_headroom_unbudgeted(self):
        assert MemoryManager().headroom() is None

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError):
            MemoryManager().register(-1)

    def test_over_release_clamps_to_zero(self):
        manager = MemoryManager()
        manager.register(10)
        with pytest.warns(RuntimeWarning, match="double-release"):
            manager.release(50)
        assert manager.live == 0

    def test_double_release_counted_and_warned(self):
        """The clamp must not hide the caller bug: each underflow bumps
        the counter and warns (the satellite fix for silent clamping)."""
        manager = MemoryManager()
        manager.register(10)
        manager.release(10)
        assert manager.double_release_count == 0
        with pytest.warns(RuntimeWarning, match="double-release"):
            manager.release(10)
        assert manager.double_release_count == 1
        with pytest.warns(RuntimeWarning, match="occurrence #2"):
            manager.release(5)
        assert manager.double_release_count == 2
        assert manager.live == 0

    def test_lifetime_totals_are_monotonic(self):
        manager = MemoryManager()
        manager.register(100)
        manager.release(40)
        manager.register(10)
        assert manager.total_registered == 110
        assert manager.total_released == 40

    def test_reset_peak_starts_from_live(self):
        manager = MemoryManager()
        manager.register(10)
        manager.release(4)
        assert manager.peak == 10
        manager.reset_peak()
        assert manager.live == manager.peak == 6
        assert manager.total_registered == 10

    def test_thread_safety_of_register_release(self):
        manager = MemoryManager()

        def worker():
            for _ in range(1000):
                manager.register(8)
                manager.release(8)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.live == 0


class TestTrackedBuffer:
    def test_buffer_registers_on_creation(self):
        before = current_memory_manager().live
        buffer = TrackedBuffer(512)
        assert current_memory_manager().live == before + 512
        buffer.release()

    def test_buffer_releases_on_gc(self):
        before = current_memory_manager().live
        buffer = TrackedBuffer(256)
        del buffer
        gc.collect()
        assert current_memory_manager().live == before

    def test_explicit_release_is_idempotent(self):
        before = current_memory_manager().live
        buffer = TrackedBuffer(128)
        buffer.release()
        buffer.release()
        assert current_memory_manager().live == before


class TestMemoryBudgetContext:
    """A budget for a scope is the session's ``memory.budget`` option
    under ``option_context``."""

    def _budget(self, budget):
        from repro.core.session import current_session

        return current_session().option_context("memory.budget", budget)

    def test_budget_installed_and_restored(self):
        assert current_memory_manager().budget is None
        with self._budget(1 << 20):
            assert current_memory_manager().budget == 1 << 20
        assert current_memory_manager().budget is None

    def test_budget_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with self._budget(1 << 20):
                raise RuntimeError("boom")
        assert current_memory_manager().budget is None

    def test_budget_context_overrides_option_driven_budget(self):
        """A scoped budget wins over a session's own memory.budget for
        its scope, and the session's comes back after it."""
        from repro.core.session import Session

        with Session(backend="pandas",
                     options={"memory.budget": 1_000_000}) as session:
            with self._budget(100):
                assert current_memory_manager() is session.memory
                with pytest.raises(SimulatedMemoryError):
                    TrackedBuffer(500)
            assert session.memory.budget == 1_000_000
            buffer = TrackedBuffer(500)  # option budget is back; fits
            buffer.release()

    def test_budget_context_binds_to_current_session(self):
        from repro.core.session import Session, root_session

        with Session(backend="pandas") as session:
            with self._budget(64):
                assert current_memory_manager() is session.memory
                assert session.memory.budget == 64
                assert root_session().memory.budget is None
            assert session.memory.budget is None


class TestOneBudgetOwner:
    def test_invariant_tool_rejects_a_module_level_manager(self, invariants):
        import ast

        for owner in (
            "ROOT_MEMORY = MemoryManager()",
            "ROOT: MemoryManager = manager.MemoryManager(budget=None)",
            "if True:\n    shared = MemoryManager()",
            "class Holder:\n    memory = MemoryManager()",
            "def run(memory=MemoryManager()): ...",
            "@cache(MemoryManager())\ndef run(): ...",
        ):
            assert list(invariants.check_one_budget_owner(
                ast.parse(owner), "memory/manager.py")), owner
        # a manager built when a session (or a test) asks for one passes
        assert not list(invariants.check_one_budget_owner(
            ast.parse("class Session:\n    def __init__(self):\n"
                      "        self._memory = MemoryManager()\n"
                      "fresh = lambda: MemoryManager()"),
            "core/session.py"))
        assert invariants.run() == []
