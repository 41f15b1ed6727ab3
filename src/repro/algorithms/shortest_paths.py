"""Single-source shortest paths (unweighted) plus eccentricity / diameter
estimates, executed on the CSR kernel.

The sampled estimates hand their source sample to the backend's block-wise
sweep over the shared snapshot and aggregate its integer tree stats without
materialising per-source dictionaries.  Sampling draws from the snapshot's
external-ID list (the canonical ``get_vertices`` order), keeping the chosen
sources identical to the pre-kernel implementation for a given seed.

:func:`diameter_kernel` / :func:`average_path_length_kernel` are the
kernel-level entry points the session layer's
:class:`~repro.session.AnalysisPlan` calls over a shared snapshot; the free
functions are thin delegations around them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.bfs import bfs_distances, distances_kernel
from repro.algorithms.centrality import is_positive_int
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend
from repro.utils.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_samples(samples) -> None:
    """The one ``samples`` check: eager in ``plan.add()``, and again in
    :func:`diameter_sample_indexes` for callers of the free functions."""
    if not is_positive_int(samples):
        raise UsageError(f"diameter: samples must be a positive integer (got {samples!r})")


def diameter_sample_indexes(csr: "CSRGraph", samples: int, seed: int) -> list[int]:
    """Dense indexes of the seeded BFS sample a diameter or path-length
    estimate sweeps from.

    Shared by the serial kernels and the plan compiler's fused sweep (which
    partitions this exact list across workers), so all sweep the same
    sources for a given seed.
    """
    check_samples(samples)
    vertices = csr.external_ids
    if not vertices:
        return []
    rng = SeededRandom(seed)
    return [csr.index(vertex) for vertex in rng.sample(vertices, min(samples, len(vertices)))]


def diameter_kernel(
    csr: "CSRGraph",
    samples: int = 10,
    seed: int = 0,
    backend: "KernelBackend | None" = None,
) -> int:
    """Kernel-level entry point: diameter lower bound from sampled BFS trees
    (the sample goes to the backend's block-wise sweep as one list; the
    eccentricity is the integer the plan compiler reads off ``tree_stats``)."""
    active = backend or get_backend()
    sources = diameter_sample_indexes(csr, samples, seed)
    return max((active.tree_stats(tree)[2] for tree, _ in active.sweep(csr, sources)), default=0)


def average_path_length_kernel(
    csr: "CSRGraph",
    samples: int = 10,
    seed: int = 0,
    backend: "KernelBackend | None" = None,
) -> float:
    """Kernel-level entry point: mean hop distance over sampled BFS trees."""
    active = backend or get_backend()
    total = count = 0
    for tree, _ in active.sweep(csr, diameter_sample_indexes(csr, samples, seed)):
        reachable, distance, _ = active.tree_stats(tree)
        count += reachable
        total += distance
    return total / count if count else 0.0


def single_source_shortest_paths(graph: Graph, source: VertexId) -> dict[VertexId, int]:
    """Hop distances from ``source`` (alias of :func:`bfs_distances`)."""
    return bfs_distances(graph, source)


def eccentricity(graph: Graph, vertex: VertexId) -> int:
    """Largest hop distance from ``vertex`` to any reachable vertex."""
    csr = graph.snapshot()
    distances = distances_kernel(csr, csr.index(vertex))
    return max(distances, default=0) if csr.n else 0


def approximate_diameter(graph: Graph, samples: int = 10, seed: int = 0) -> int:
    """Lower bound on the diameter from BFS at ``samples`` random vertices."""
    return diameter_kernel(graph.snapshot(), samples=samples, seed=seed)


def average_path_length(graph: Graph, samples: int = 10, seed: int = 0) -> float:
    """Average hop distance over BFS trees rooted at sampled vertices."""
    return average_path_length_kernel(graph.snapshot(), samples=samples, seed=seed)
