"""Community detection by (semi-synchronous) label propagation.

The paper motivates GraphGen with "complex analysis tasks like community
detection ... which require random and arbitrary access to the graph"; label
propagation is the classic lightweight community-detection algorithm.

The kernel propagates dense integer labels over the CSR snapshot; the
deterministic tie-break (most frequent label, then smallest ``repr``) is
evaluated on the external IDs' reprs so the output matches the pre-kernel
Graph-API implementation exactly, shuffle order included.  Every backend
shares the reference kernel: in-round updates are sequential by definition
(a vertex reads labels already updated earlier in the same shuffled round),
so there is no vectorised variant — see
:meth:`repro.graph.backend.python_backend.KernelBackend.label_propagation`.

:func:`label_propagation_runner` is the registry's ``(csr, backend,
params)`` runner and :func:`check_label_propagation` its parameter check:
together they are :func:`label_propagation` and a session
:class:`~repro.session.AnalysisPlan`'s ``label_propagation`` request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.centrality import check_seed, is_nonnegative_int
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_label_propagation(params: dict) -> None:
    if not is_nonnegative_int(params["max_iterations"]):
        raise UsageError(
            f"label_propagation: max_iterations must be a non-negative integer "
            f"(got {params['max_iterations']!r})"
        )
    check_seed("label_propagation", params["seed"])


def label_propagation_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Community label (a vertex) of every vertex."""
    labels = backend.label_propagation(csr, params["max_iterations"], params["seed"])
    ids = csr.external_ids
    return {ids[v]: ids[label] for v, label in enumerate(labels)}


def label_propagation(
    graph: Graph,
    max_iterations: int = 20,
    seed: int = 0,
) -> dict[VertexId, VertexId]:
    """Assign a community label to every vertex.

    Every vertex starts in its own community; in each round the vertices (in a
    shuffled order) adopt the most frequent label among their out-neighbors,
    with deterministic tie-breaking.  Stops when no label changes or after
    ``max_iterations`` rounds.
    """
    params = {"max_iterations": max_iterations, "seed": seed}
    check_label_propagation(params)
    return label_propagation_runner(graph.snapshot(), get_backend(), params)


def communities(graph: Graph, max_iterations: int = 20, seed: int = 0) -> list[set[VertexId]]:
    """Group vertices by their propagated label, largest community first."""
    labels = label_propagation(graph, max_iterations=max_iterations, seed=seed)
    groups: dict[VertexId, set[VertexId]] = {}
    for vertex, label in labels.items():
        groups.setdefault(label, set()).add(vertex)
    return sorted(groups.values(), key=len, reverse=True)
