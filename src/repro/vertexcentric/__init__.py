"""Vertex-centric execution framework and built-in programs."""

from repro._lazy import lazy_exports

__all__ = [
    "Executor",
    "RunStatistics",
    "VertexCentric",
    "VertexContext",
    "ParallelSuperstepExecutor",
    "partition_range",
    "ConnectedComponentsProgram",
    "DegreeProgram",
    "LabelPropagationProgram",
    "PageRankProgram",
    "SingleSourceShortestPathsProgram",
    "run_connected_components",
    "run_degree",
    "run_label_propagation",
    "run_pagerank",
    "run_sssp",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.vertexcentric.framework": (
            "Executor",
            "RunStatistics",
            "VertexCentric",
            "VertexContext",
        ),
        "repro.vertexcentric.parallel": ("ParallelSuperstepExecutor", "partition_range"),
        "repro.vertexcentric.programs": (
            "ConnectedComponentsProgram",
            "DegreeProgram",
            "LabelPropagationProgram",
            "PageRankProgram",
            "SingleSourceShortestPathsProgram",
            "run_connected_components",
            "run_degree",
            "run_label_propagation",
            "run_pagerank",
            "run_sssp",
        ),
    },
)
