"""Small shared utilities: timing, memory estimation, seeded randomness."""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.utils.timing": ("Timer", "timed", "time_call"),
        "repro.utils.memory": (
            "deep_size_of",
            "estimate_adjacency_bytes",
            "estimate_bitmap_bytes",
            "format_bytes",
        ),
        "repro.utils.rand": ("SeededRandom",),
    },
)
