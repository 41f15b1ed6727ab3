"""Simulated Apache Giraph port of the representations (Section 6.4)."""

from repro._lazy import lazy_exports

__all__ = [
    "GiraphContext",
    "GiraphEngine",
    "GiraphMetrics",
    "GiraphProgram",
    "GiraphVertex",
    "from_condensed",
    "from_expanded",
    "GiraphConnectedComponents",
    "GiraphDegree",
    "GiraphPageRank",
    "is_virtual_id",
    "ALGORITHMS",
    "GiraphRunResult",
    "build_vertices",
    "run_giraph",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.giraph.engine": (
            "GiraphContext",
            "GiraphEngine",
            "GiraphMetrics",
            "GiraphProgram",
            "GiraphVertex",
        ),
        "repro.giraph.adapters": ("from_condensed", "from_expanded"),
        "repro.giraph.programs": (
            "GiraphConnectedComponents",
            "GiraphDegree",
            "GiraphPageRank",
            "is_virtual_id",
        ),
        "repro.giraph.runner": ("ALGORITHMS", "GiraphRunResult", "build_vertices", "run_giraph"),
    },
)
