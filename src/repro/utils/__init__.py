"""Small shared utilities: timing, memory estimation, seeded randomness."""

from repro.utils.timing import Timer, timed, time_call
from repro.utils.memory import (
    deep_size_of,
    estimate_adjacency_bytes,
    estimate_bitmap_bytes,
    format_bytes,
)
from repro.utils.rand import SeededRandom

__all__ = [
    "Timer",
    "timed",
    "time_call",
    "deep_size_of",
    "estimate_adjacency_bytes",
    "estimate_bitmap_bytes",
    "format_bytes",
    "SeededRandom",
]
