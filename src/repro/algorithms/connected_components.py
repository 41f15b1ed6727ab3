"""Connected components (weak connectivity) over the CSR execution kernel.

Connected components is duplicate-insensitive, so the paper runs it directly
on C-DUP and even exploits the condensed topology in the Giraph port for a
speed-up (Section 6.4).

The kernel comes from the selected backend
(:func:`repro.graph.backend.get_backend`): an integer union-find (path
halving + union by size) on ``python``, hooking + pointer jumping on
``numpy``.  Both assign component labels in first-vertex order, so the
results are identical across backends and to the pre-backend implementation.

:func:`components_runner` is the registry's ``(csr, backend, params)``
runner — :func:`connected_components` and a session
:class:`~repro.session.AnalysisPlan`'s ``components`` request alike;
it is :func:`components_vector`, the per-index form the incremental
maintainer carries, decoded by ``csr.decode`` — the registry's step from
vector to value, which plans and incremental serves take too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def components_vector(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> list[int]:
    """Component label (0-based, first-vertex order) per dense index; edges
    are treated as undirected."""
    return backend.connected_components(csr)


def components_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    return csr.decode(components_vector(csr, backend, params))


def connected_components(graph: Graph) -> dict[VertexId, int]:
    """Map every vertex to a component index (0-based, ordered by discovery).

    Edges are treated as undirected (weak connectivity).
    """
    return components_runner(graph.snapshot(), get_backend(), {})


def component_sizes(graph: Graph) -> list[int]:
    """Sizes of all components, largest first."""
    counts: dict[int, int] = {}
    for label in get_backend().connected_components(graph.snapshot()):
        counts[label] = counts.get(label, 0) + 1
    return sorted(counts.values(), reverse=True)


def num_components(graph: Graph) -> int:
    return len(set(get_backend().connected_components(graph.snapshot())))


def largest_component(graph: Graph) -> set[VertexId]:
    """The vertex set of the largest component (empty set for empty graphs)."""
    csr = graph.snapshot()
    labels = get_backend().connected_components(csr)
    if not labels:
        return set()
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    biggest = max(counts, key=lambda label: counts[label])
    ids = csr.external_ids
    return {ids[v] for v, label in enumerate(labels) if label == biggest}
