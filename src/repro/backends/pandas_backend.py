"""Eager whole-frame backend (the pandas stand-in).

Every operator maps 1:1 onto :mod:`repro.frame`; a plan is cut per
partition only where the size gate cuts it.  Fastest for data that fits
in memory (Figure 13), first to die when it does not (Figure 12).
"""

from __future__ import annotations

from repro.backends.base import Backend


class PandasBackend(Backend):
    """Direct execution on the eager frame engine."""

    name = "pandas"

    # -- materialization ---------------------------------------------------
    # Defined here, not only inherited: the benchmark's tracer
    # (bench/spans.py) wraps each backend class's own methods.

    def materialize(self, value):
        """A root's value as the caller receives it: the eager value."""
        return value

    def persist(self, value):
        """Keep a computed value resident for reuse (section 3.5)."""
        return value
