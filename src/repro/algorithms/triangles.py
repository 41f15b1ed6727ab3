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

Both answers are shaped from the one per-vertex pass,
:func:`triangle_counts_vector`: the count is its sum over three
(:func:`triangles_from_counts`), the mean coefficient
:func:`clustering_from_counts`.  :func:`triangles_runner` /
:func:`clustering_runner` are the registry's ``(csr, backend, params)``
runners — :func:`count_triangles` / :func:`average_clustering` and a session
:class:`~repro.session.AnalysisPlan`'s requests alike; a plan that asks for
both runs the pass once and hands it to both shapers.

On a journaled graph the per-vertex vector is what the session remembers,
once for both algorithms: they name the ``triangle-counts`` maintainer
(:mod:`repro.incremental.triangles`), which repairs it over a window of
edge deltas from the changed pairs' common neighbours, and an incremental
serve shapes it with the same two functions — so a maintained
``clustering`` is a cold plan's float, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def triangles_from_counts(csr: "CSRGraph", per_vertex: list[int]) -> int:
    """Number of distinct triangles: each is counted at its three corners."""
    return sum(per_vertex) // 3


def clustering_from_counts(csr: "CSRGraph", per_vertex: list[int]) -> float:
    """Mean local clustering coefficient from the per-vertex triangle counts.

    A vertex's triangles are exactly the links among its neighbourhood;
    the coefficients are summed in vertex order from integers, so every
    backend's counts give the same float, bit for bit.
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


def triangle_counts_vector(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> list[int]:
    """Triangles per dense index."""
    return backend.triangles_per_vertex(csr)


def triangles_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> int:
    return triangles_from_counts(csr, triangle_counts_vector(csr, backend, params))


def clustering_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> float:
    return clustering_from_counts(csr, triangle_counts_vector(csr, backend, params))


def count_triangles(graph: Graph) -> int:
    """Number of distinct triangles (each counted once)."""
    return triangles_runner(graph.snapshot(), get_backend(), {})


def triangles_per_vertex(graph: Graph) -> dict[VertexId, int]:
    """Number of triangles each vertex participates in."""
    csr = graph.snapshot()
    return csr.decode(get_backend().triangles_per_vertex(csr))


def clustering_coefficient(graph: Graph, vertex: VertexId) -> float:
    """Local clustering coefficient of ``vertex`` (0.0 when degree < 2)."""
    csr = graph.snapshot()
    if not csr.has_vertex(vertex):
        return 0.0
    return get_backend().clustering_coefficient(csr, csr.index(vertex))


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient over all vertices."""
    return clustering_runner(graph.snapshot(), get_backend(), {})
