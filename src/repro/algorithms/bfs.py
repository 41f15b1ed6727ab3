"""Breadth-first search over the CSR execution kernel.

BFS is one of the paper's three benchmark algorithms; it is also
duplicate-insensitive, i.e. it returns correct results even when run directly
on C-DUP without deduplication (Section 4.1).

Each public function encodes the graph into its cached
:class:`~repro.graph.kernel.CSRGraph` snapshot, runs an integer-frontier
kernel from the selected backend (:func:`repro.graph.backend.get_backend`),
and decodes at the boundary.  Repeated BFS calls on the same graph — the
Figure 11 workload runs 50 sources — share one snapshot, so only the first
call pays the encoding cost.  Discovery order matches the pre-kernel FIFO
implementation exactly on every backend (the ``numpy`` frontier kernels
preserve first-occurrence discovery order, see
:mod:`repro.graph.backend.numpy_backend`).

:func:`bfs_runner` is the registry's ``(csr, backend, params)`` runner and
:func:`check_bfs` its parameter check: together they are
:func:`bfs_distances` and a session :class:`~repro.session.AnalysisPlan`'s
``bfs`` request.  The runner is :func:`bfs_values` of :func:`bfs_vector`:
the per-index form the incremental maintainer carries, and the registry's
step from it to the reported dict, which plans and incremental serves take
too.  In a plan whose fused source sweep already covers every vertex, an
unbounded ``bfs`` rides along instead (:func:`bfs_demand`, the sweep
protocol of :mod:`repro.algorithms.centrality`): :func:`bfs_finish` shapes
the swept distance row with the same :func:`bfs_values`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.centrality import SweepDemand, is_nonnegative_int
from repro.exceptions import RepresentationError, UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_bfs(params: dict) -> None:
    # a plan catches a missing source before any check runs; only an
    # explicit None reaches this
    if params["source"] is None:
        raise UsageError("bfs requires a source vertex (pass source=...)")
    max_depth = params["max_depth"]
    if max_depth is not None and not is_nonnegative_int(max_depth):
        raise UsageError(
            f"bfs: max_depth must be a non-negative integer or None (got {max_depth!r})"
        )


def encode_source(csr: "CSRGraph", source: VertexId) -> int:
    if not csr.has_vertex(source):
        raise RepresentationError(f"BFS source {source!r} is not in the graph")
    return csr.index(source)


def bfs_vector(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> list[int]:
    """Hop distance per dense index (-1 unreachable)."""
    source = encode_source(csr, params["source"])
    return backend.bfs_distances(csr, source, max_depth=params["max_depth"])


def bfs_values(csr: "CSRGraph", dense: list[int]) -> dict:
    """A distance vector as the reported dict: unreached vertices (-1)
    dropped."""
    return {v: d for v, d in zip(csr.external_ids, dense) if d >= 0}


def bfs_demand(csr: "CSRGraph", params: dict) -> SweepDemand | None:
    """The source's distance row, riding along a sweep over every vertex;
    none when bounded by ``max_depth`` or off the graph (the runner raises)."""
    source = params["source"]
    if params["max_depth"] is not None or not csr.has_vertex(source):
        return None
    return SweepDemand([csr.index(source)], distances=True, rides_along=True)


def bfs_finish(csr: "CSRGraph", backend: "KernelBackend", params: dict, answer) -> dict:
    _, _, distances = answer
    return bfs_values(csr, distances)


def bfs_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    return bfs_values(csr, bfs_vector(csr, backend, params))


def bfs_distances(graph: Graph, source: VertexId, max_depth: int | None = None) -> dict[VertexId, int]:
    """Hop distance from ``source`` to every reachable vertex (including itself)."""
    params = {"source": source, "max_depth": max_depth}
    check_bfs(params)
    return bfs_runner(graph.snapshot(), get_backend(), params)


def bfs_order(graph: Graph, source: VertexId) -> list[VertexId]:
    """Vertices in BFS visit order starting from ``source``."""
    csr = graph.snapshot()
    ids = csr.external_ids
    return [ids[v] for v in get_backend().bfs_order(csr, encode_source(csr, source))]


def bfs_tree(graph: Graph, source: VertexId) -> dict[VertexId, VertexId | None]:
    """Parent pointers of a BFS tree rooted at ``source`` (root maps to None)."""
    csr = graph.snapshot()
    parents = get_backend().bfs_parents(csr, encode_source(csr, source))
    ids = csr.external_ids
    return {
        ids[v]: (None if p == -1 else ids[p])
        for v, p in enumerate(parents)
        if p != -2
    }


def reachable_set(graph: Graph, source: VertexId) -> set[VertexId]:
    """All vertices reachable from ``source`` (including itself)."""
    return set(bfs_distances(graph, source))


def shortest_path(graph: Graph, source: VertexId, target: VertexId) -> list[VertexId] | None:
    """A shortest (unweighted) path from ``source`` to ``target``; None if unreachable."""
    csr = graph.snapshot()
    src = encode_source(csr, source)
    if not csr.has_vertex(target):
        return None
    parents = get_backend().bfs_parents(csr, src)
    dst = csr.index(target)
    if parents[dst] == -2:
        return None
    ids = csr.external_ids
    path = [ids[dst]]
    current = dst
    while parents[current] != -1:
        current = parents[current]
        path.append(ids[current])
    path.reverse()
    return path
