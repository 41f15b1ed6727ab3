"""Small shared utilities: timing, memory estimation, seeded randomness."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Timer": "repro.utils.timing",
        "timed": "repro.utils.timing",
        "time_call": "repro.utils.timing",
        "deep_size_of": "repro.utils.memory",
        "estimate_adjacency_bytes": "repro.utils.memory",
        "estimate_bitmap_bytes": "repro.utils.memory",
        "format_bytes": "repro.utils.memory",
        "SeededRandom": "repro.utils.rand",
    },
)
