"""Shared fixtures: clean session/memory state and CSV builders."""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest

from repro.core.session import reset_root_session
from repro.frame import DataFrame
from repro.memory import memory_manager

try:  # derandomized profile for CI property-test runs
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_settings.register_profile(
        "ci", derandomize=True, print_blob=True
    )
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default")
    )
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "deadline(seconds): fail the test, with every thread's stack on "
        "stderr, once it has run this long (POSIX main thread only)",
    )


@pytest.fixture(autouse=True)
def _hard_deadline(request):
    """``@pytest.mark.deadline(seconds)``: a hung test fails instead of
    stalling the run.

    For the tests that fork worker pools or drive an event loop: a
    wedged pool leaves the parent waiting on a lock forever.
    ``SIGALRM`` interrupts that wait in the main thread; the handler
    dumps all stacks (the parent's wait is the informative one), kills
    the worker processes so that neither the pool's shutdown nor its
    exit hook can wait on a stuck one, and raises.  It re-arms itself:
    hypothesis replays a failing example, which may hang again.
    """
    marker = request.node.get_closest_marker("deadline")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.args[0])

    def expired(signum, frame):
        faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        for child in multiprocessing.active_children():
            child.kill()
        signal.alarm(seconds)
        raise TimeoutError(
            f"{request.node.nodeid} exceeded its {seconds} s deadline"
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _clear_session_stack():
    """Drop any session a failed test left on this thread's stack --
    otherwise current_session() would ignore the fresh root below and
    every later test would run on the dead test's session."""
    from repro.core import session as session_module

    session_module._stack().clear()


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts with a fresh root session and unbudgeted memory."""
    memory_manager.budget = None
    memory_manager.reset()
    _clear_session_stack()
    reset_root_session("pandas")
    yield
    memory_manager.budget = None
    _clear_session_stack()
    reset_root_session("pandas")


@pytest.fixture
def make_csv(tmp_path):
    """Write a dict-of-columns to a CSV file; returns the path."""

    def _make(columns: dict, name: str = "data.csv") -> str:
        path = os.path.join(tmp_path, name)
        DataFrame(columns).to_csv(path)
        return path

    return _make


@pytest.fixture
def taxi_csv(make_csv):
    """A small taxi-shaped table (the paper's running example)."""
    n = 200
    rng = np.random.default_rng(42)
    return make_csv(
        {
            "tpep_pickup_datetime": np.array(
                ["2024-03-%02d %02d:30:00" % (i % 28 + 1, i % 24) for i in range(n)],
                dtype=object,
            ),
            "passenger_count": rng.integers(1, 6, n),
            "fare_amount": np.round(rng.normal(15, 10, n), 2),
            "tip_amount": np.round(np.abs(rng.normal(2, 1, n)), 2),
            "vendor": np.array([f"v{i % 5}" for i in range(n)], dtype=object),
            "note": np.array([f"note-{i}" for i in range(n)], dtype=object),
        },
        "taxi.csv",
    )
