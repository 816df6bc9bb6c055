"""Simulated memory substrate.

The paper evaluates on a 32 GB machine against 1.4/4.2/12.6 GB datasets and
reports which programs run out of memory (Figure 12) and peak memory usage
(Figure 15).  To reproduce that behaviour at laptop scale we track the bytes
of every live column buffer against a configurable *budget*; exceeding the
budget raises :class:`SimulatedMemoryError` just as a real allocation
failure would kill a pandas program.
"""

from repro.memory.manager import (
    MemoryManager,
    SimulatedMemoryError,
    TrackedBuffer,
    current_memory_manager,
)

__all__ = [
    "MemoryManager",
    "SimulatedMemoryError",
    "TrackedBuffer",
    "current_memory_manager",
]
