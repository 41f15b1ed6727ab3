"""k-core decomposition over the CSR execution kernel.

The paper motivates GraphGen with "complex analysis tasks like community
detection, dense subgraph detection" that need random access to the graph and
cannot be pushed to SQL (Section 2).  k-core decomposition is the standard
dense-subgraph primitive: the *k-core* is the maximal subgraph in which every
vertex has degree at least ``k``, and a vertex's *core number* is the largest
``k`` for which it belongs to the k-core.

Edges are treated as undirected (the co-occurrence graphs GraphGen extracts
are symmetric).  The peeling kernel comes from the selected backend:
Batagelj–Zaveršnik bucket peeling over symmetrised dense-index sets on
``python``, masked bulk peeling over the sorted symmetrised CSR on
``numpy`` — core numbers are graph-determined, so both are exactly equal.

:func:`kcore_runner` is the registry's ``(csr, backend, params)`` runner —
:func:`core_numbers` and a session :class:`~repro.session.AnalysisPlan`'s
``kcore`` request alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def kcore_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Core number of every vertex."""
    return csr.decode(backend.core_numbers(csr))


def core_numbers(graph: Graph) -> dict[VertexId, int]:
    """Core number of every vertex (Batagelj–Zaveršnik peeling algorithm).

    Runs in ``O(V + E)`` after the adjacency has been symmetrised.
    """
    return kcore_runner(graph.snapshot(), get_backend(), {})


def k_core(graph: Graph, k: int) -> set[VertexId]:
    """Vertices of the k-core (maximal subgraph of minimum degree >= k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    csr = graph.snapshot()
    cores = get_backend().core_numbers(csr)
    ids = csr.external_ids
    return {ids[v] for v, core in enumerate(cores) if core >= k}


def degeneracy(graph: Graph) -> int:
    """The graph's degeneracy (the largest k with a non-empty k-core)."""
    return max(get_backend().core_numbers(graph.snapshot()), default=0)


def degeneracy_ordering(graph: Graph) -> list[VertexId]:
    """Vertices ordered by non-decreasing core number (ties by repr).

    A degeneracy ordering is the standard preprocessing step for clique
    enumeration and greedy colouring on the extracted graphs.
    """
    csr = graph.snapshot()
    cores = get_backend().core_numbers(csr)
    ids = csr.external_ids
    return sorted(ids, key=lambda vertex: (cores[csr.index(vertex)], repr(vertex)))


def densest_core(graph: Graph) -> tuple[int, set[VertexId]]:
    """The innermost (highest-k) core: ``(k, vertex set)``.

    Returns ``(0, set of all vertices)`` for an edgeless graph.
    """
    csr = graph.snapshot()
    cores = get_backend().core_numbers(csr)
    if not cores:
        return 0, set()
    k = max(cores)
    ids = csr.external_ids
    return k, {ids[v] for v, core in enumerate(cores) if core == k}
