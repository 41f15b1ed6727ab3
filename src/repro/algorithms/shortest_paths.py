"""Single-source shortest paths (unweighted) plus eccentricity / diameter
estimates, executed on the CSR kernel.

The sampled estimates hand their source sample to the backend's block-wise
sweep over the shared snapshot and aggregate its integer tree stats without
materialising per-source dictionaries.  Sampling draws from the snapshot's
external-ID list (the canonical ``get_vertices`` order), keeping the chosen
sources identical to the pre-kernel implementation for a given seed.

:func:`diameter_runner` is the registry's ``(csr, backend, params)`` runner
and :func:`check_diameter` its parameter check: together they are
:func:`approximate_diameter` and a session
:class:`~repro.session.AnalysisPlan`'s ``diameter`` request.  The runner's
answer is the max eccentricity the plan compiler also reads off its fused
sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.bfs import bfs_distances
from repro.algorithms.centrality import is_positive_int
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend
from repro.utils.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_diameter(params: dict) -> None:
    """The one ``samples`` check, for the diameter and path-length estimates."""
    if not is_positive_int(params["samples"]):
        raise UsageError(
            f"diameter: samples must be a positive integer (got {params['samples']!r})"
        )


def diameter_sample_indexes(csr: "CSRGraph", samples: int, seed: int) -> list[int]:
    """Dense indexes of the seeded BFS sample a diameter or path-length
    estimate sweeps from.

    Shared by the runners and the plan compiler's fused sweep (which
    partitions this exact list across workers), so all sweep the same
    sources for a given seed.
    """
    vertices = csr.external_ids
    if not vertices:
        return []
    rng = SeededRandom(seed)
    return [csr.index(vertex) for vertex in rng.sample(vertices, min(samples, len(vertices)))]


def diameter_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> int:
    """Diameter lower bound: the largest eccentricity over the sample."""
    sources = diameter_sample_indexes(csr, params["samples"], params["seed"])
    return max((backend.tree_stats(tree)[2] for tree, _ in backend.sweep(csr, sources)), default=0)


def single_source_shortest_paths(graph: Graph, source: VertexId) -> dict[VertexId, int]:
    """Hop distances from ``source`` (alias of :func:`bfs_distances`)."""
    return bfs_distances(graph, source)


def eccentricity(graph: Graph, vertex: VertexId) -> int:
    """Largest hop distance from ``vertex`` to any reachable vertex."""
    csr = graph.snapshot()
    distances = get_backend().bfs_distances(csr, csr.index(vertex))
    return max(distances, default=0) if csr.n else 0


def approximate_diameter(graph: Graph, samples: int = 10, seed: int = 0) -> int:
    """Lower bound on the diameter from BFS at ``samples`` random vertices."""
    params = {"samples": samples, "seed": seed}
    check_diameter(params)
    return diameter_runner(graph.snapshot(), get_backend(), params)


def average_path_length(graph: Graph, samples: int = 10, seed: int = 0) -> float:
    """Average hop distance over BFS trees rooted at sampled vertices."""
    check_diameter({"samples": samples})
    csr = graph.snapshot()
    backend = get_backend()
    total = count = 0
    for tree, _ in backend.sweep(csr, diameter_sample_indexes(csr, samples, seed)):
        reachable, distance, _ = backend.tree_stats(tree)
        count += reachable
        total += distance
    return total / count if count else 0.0
