"""Degree computation.

Trivial on EXP; on condensed representations it exercises the neighbor
machinery, which is exactly why the paper uses it as one of its three
benchmark algorithms (Figures 11 and 13, Table 3, Table 4).

Whole-graph variants read degrees straight off the CSR snapshot's offset
array through the selected kernel backend (a cached list scan on ``python``,
an ``np.diff`` over the zero-copy offset view on ``numpy``);
:func:`degree_of` keeps the single-vertex Graph-API path so that one lookup
never forces a full snapshot of a cold graph.

:func:`degree_runner` is the registry's ``(csr, backend, params)`` runner —
the one code that computes ``degree``, in a session
:class:`~repro.session.AnalysisPlan` and in :func:`degrees` alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def degree_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Out-degree of every vertex."""
    return csr.decode(backend.degrees(csr))


def degrees(graph: Graph) -> dict[VertexId, int]:
    """Out-degree of every vertex (logical, duplicates removed)."""
    return degree_runner(graph.snapshot(), get_backend(), {})


def degree_of(graph: Graph, vertex: VertexId) -> int:
    """Out-degree of a single vertex."""
    csr = graph.cached_snapshot()
    if csr is not None:
        return csr.out_degree(csr.index(vertex))
    return graph.degree(vertex)


def average_degree(graph: Graph) -> float:
    """Mean out-degree (0.0 for an empty graph)."""
    csr = graph.snapshot()
    if csr.n == 0:
        return 0.0
    return csr.num_edges / csr.n


def max_degree_vertex(graph: Graph) -> tuple[VertexId, int] | None:
    """The vertex with the largest out-degree, or ``None`` for an empty graph."""
    csr = graph.snapshot()
    best: tuple[VertexId, int] | None = None
    for index, degree in enumerate(get_backend().degrees(csr)):
        if best is None or degree > best[1]:
            best = (csr.external_ids[index], degree)
    return best
