"""Single-source shortest paths (unweighted) plus eccentricity / diameter
estimates, executed on the CSR kernel.

The sampled estimates sweep a seeded source sample through the backend's
block-wise sweep over the shared snapshot and aggregate its integer tree
stats without materialising per-source dictionaries.  Sampling draws from
the snapshot's external-ID list (the canonical ``get_vertices`` order),
keeping the chosen sources identical to the pre-kernel implementation for a
given seed.

``diameter`` speaks the sweep protocol of :mod:`repro.algorithms.centrality`:
:func:`diameter_demand` is the seeded sample, :func:`diameter_finish` the
largest eccentricity over it, and :func:`diameter_runner` — the registry's
``(csr, backend, params)`` runner — is that finish over the one-demand
:func:`~repro.algorithms.centrality.sweep_answer`; a plan's fused sweep
hands the same finish its answer.  :func:`average_path_length` sweeps the
same demand and finishes with :func:`path_length_finish`.
:func:`check_diameter` is the parameter check of both estimates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.bfs import bfs_distances
from repro.algorithms.centrality import SweepDemand, check_seed, is_positive_int, sweep_answer
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend
from repro.utils.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_diameter(params: dict) -> None:
    """The one ``samples`` / ``seed`` check of the diameter and path-length estimates."""
    if not is_positive_int(params["samples"]):
        raise UsageError(
            f"diameter: samples must be a positive integer (got {params['samples']!r})"
        )
    check_seed("diameter", params["seed"])


def diameter_demand(csr: "CSRGraph", params: dict) -> SweepDemand | None:
    """The seeded sample of ``samples`` sources (all of them, shuffled, when
    ``samples >= n``); None on an empty graph."""
    vertices = csr.external_ids
    if not vertices:
        return None
    rng = SeededRandom(params["seed"])
    picked = rng.sample(vertices, min(params["samples"], len(vertices)))
    return SweepDemand([csr.index(vertex) for vertex in picked])


def diameter_finish(csr: "CSRGraph", backend: "KernelBackend", params: dict, answer) -> int:
    """Diameter lower bound: the largest eccentricity over the sample."""
    stats, _, _ = answer
    return max((ecc for _, _, ecc in stats), default=0)


def diameter_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> int:
    answer = sweep_answer(csr, backend, diameter_demand(csr, params))
    return diameter_finish(csr, backend, params, answer)


def path_length_finish(csr: "CSRGraph", backend: "KernelBackend", params: dict, answer) -> float:
    """Mean hop distance over the sample's trees: integer sums, one division."""
    stats, _, _ = answer
    count = sum(reachable for reachable, _, _ in stats)
    total = sum(distance for _, distance, _ in stats)
    return total / count if count else 0.0


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
    params = {"samples": samples, "seed": seed}
    check_diameter(params)
    csr = graph.snapshot()
    backend = get_backend()
    answer = sweep_answer(csr, backend, diameter_demand(csr, params))
    return path_length_finish(csr, backend, params, answer)
