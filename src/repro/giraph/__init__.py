"""Simulated Apache Giraph port of the representations (Section 6.4)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "GiraphContext": "repro.giraph.engine",
        "GiraphEngine": "repro.giraph.engine",
        "GiraphMetrics": "repro.giraph.engine",
        "GiraphProgram": "repro.giraph.engine",
        "GiraphVertex": "repro.giraph.engine",
        "from_condensed": "repro.giraph.adapters",
        "from_expanded": "repro.giraph.adapters",
        "GiraphConnectedComponents": "repro.giraph.programs",
        "GiraphDegree": "repro.giraph.programs",
        "GiraphPageRank": "repro.giraph.programs",
        "is_virtual_id": "repro.giraph.programs",
        "ALGORITHMS": "repro.giraph.runner",
        "GiraphRunResult": "repro.giraph.runner",
        "build_vertices": "repro.giraph.runner",
        "run_giraph": "repro.giraph.runner",
    },
)
