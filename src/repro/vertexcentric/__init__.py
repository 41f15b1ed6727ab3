"""Vertex-centric execution framework and built-in programs."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Executor": "repro.vertexcentric.framework",
        "RunStatistics": "repro.vertexcentric.framework",
        "VertexCentric": "repro.vertexcentric.framework",
        "VertexContext": "repro.vertexcentric.framework",
        "ParallelSuperstepExecutor": "repro.vertexcentric.parallel",
        "partition_range": "repro.vertexcentric.parallel",
        "ConnectedComponentsProgram": "repro.vertexcentric.programs",
        "DegreeProgram": "repro.vertexcentric.programs",
        "LabelPropagationProgram": "repro.vertexcentric.programs",
        "PageRankProgram": "repro.vertexcentric.programs",
        "SingleSourceShortestPathsProgram": "repro.vertexcentric.programs",
        "run_connected_components": "repro.vertexcentric.programs",
        "run_degree": "repro.vertexcentric.programs",
        "run_label_propagation": "repro.vertexcentric.programs",
        "run_pagerank": "repro.vertexcentric.programs",
        "run_sssp": "repro.vertexcentric.programs",
    },
)
