"""Triangle counting and clustering coefficients over the CSR kernel.

Edges are treated as undirected (the out-adjacency is symmetrised first) and
self-loops are ignored.  Triangle counting is a representative "dense
subgraph" style workload that exercises neighbor-set intersection rather than
plain iteration, complementing PageRank and BFS in the example applications.

The intersection kernels come from the selected backend
(:func:`repro.graph.backend.get_backend`): dense-integer set intersection on
``python``, ``searchsorted`` probes into the sorted symmetrised CSR on
``numpy``.  Both count the same ``u < v < w`` orientation (the dense index is
the vertex rank), so triangle counts are exactly equal across backends; the
derived clustering coefficients share every arithmetic step and are
bit-identical too.

:func:`count_triangles_kernel` / :func:`triangles_per_vertex_kernel` /
:func:`average_clustering_kernel` are the kernel-level entry points the
session layer's :class:`~repro.session.AnalysisPlan` calls over a shared
snapshot; the free functions are thin delegations around them.  A plan that
asks for both the count and the clustering coefficient runs one per-vertex
pass and shapes both answers from it (:func:`clustering_from_counts`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def count_triangles_kernel(csr: "CSRGraph", backend: "KernelBackend | None" = None) -> int:
    """Kernel-level entry point: number of distinct triangles."""
    return (backend or get_backend()).count_triangles(csr)


def triangles_per_vertex_kernel(
    csr: "CSRGraph", backend: "KernelBackend | None" = None
) -> list[int]:
    """Kernel-level entry point: triangle participation count per dense index."""
    return (backend or get_backend()).triangles_per_vertex(csr)


def average_clustering_kernel(
    csr: "CSRGraph", backend: "KernelBackend | None" = None
) -> float:
    """Kernel-level entry point: mean local clustering coefficient
    (0.0 for an empty snapshot)."""
    if csr.n == 0:
        return 0.0
    return (backend or get_backend()).average_clustering(csr)


def clustering_from_counts(csr: "CSRGraph", per_vertex: list[int]) -> float:
    """Mean local clustering coefficient from the per-vertex triangle counts.

    A vertex's triangles are exactly the links among its neighbourhood, so
    this is the backends' ``average_clustering`` arithmetic term for term,
    in the same vertex order — the same float, bit for bit.
    """
    if csr.n == 0:
        return 0.0
    offsets, _ = csr.undirected_csr()
    total = 0.0
    for vertex, triangles in enumerate(per_vertex):
        degree = offsets[vertex + 1] - offsets[vertex]
        if degree >= 2:
            total += 2.0 * triangles / (degree * (degree - 1))
    return total / csr.n


def count_triangles(graph: Graph) -> int:
    """Number of distinct triangles (each counted once)."""
    return count_triangles_kernel(graph.snapshot())


def triangles_per_vertex(graph: Graph) -> dict[VertexId, int]:
    """Number of triangles each vertex participates in."""
    csr = graph.snapshot()
    return csr.decode(triangles_per_vertex_kernel(csr))


def clustering_coefficient(graph: Graph, vertex: VertexId) -> float:
    """Local clustering coefficient of ``vertex`` (0.0 when degree < 2)."""
    csr = graph.snapshot()
    if not csr.has_vertex(vertex):
        return 0.0
    return get_backend().clustering_coefficient(csr, csr.index(vertex))


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient over all vertices."""
    return average_clustering_kernel(graph.snapshot())
