"""Centrality measures over the CSR execution kernel.

Centrality analysis is one of the graph analysis tasks the paper's
introduction lists as a motivation for extracting hidden graphs.

* :func:`degree_centrality` — normalised out-degree (off the offset array).
* :func:`closeness_centrality` — inverse average BFS distance (Wasserman–Faust
  normalisation for disconnected graphs), from one integer BFS tree per vertex.
* :func:`betweenness_centrality` — Brandes' algorithm; an optional
  ``sample_size`` runs it from a random sample of sources, the standard
  approximation for large graphs.

All three dispatch to the selected kernel backend
(:func:`repro.graph.backend.get_backend`); the two per-source ones go through
its block-wise ``sweep``: the reference grows one traversal per vertex on
flat sigma/delta lists, the ``numpy`` backend 64 trees per edge pass.  The
path counts (sigma) are integers and identical on every backend; the float
delta accumulation is re-associated by the ``numpy`` backend's per-level
``bincount`` reduction, so betweenness matches the reference within 1e-9
L-infinity (closeness is a pure function of integer tree stats: equal).

:func:`closeness_runner` / :func:`betweenness_runner` are the registry's
``(csr, backend, params)`` runners (sampling and normalisation included) and
:func:`check_betweenness` the one ``sample_size`` check: together they are
the free functions and a session :class:`~repro.session.AnalysisPlan`'s
requests.  Both runners shape the sweep's products with the finaliser
arithmetic the plan compiler applies to its fused sweep
(:func:`closeness_value`, :func:`apply_betweenness_scale`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def closeness_value(n: int, reachable: int, total: int) -> float:
    """Wasserman–Faust closeness of one vertex from its BFS-tree stats.

    A pure function of integers — ``reachable`` vertices at ``total`` summed
    hop distance in an ``n``-vertex graph — so every backend (and the plan
    compiler's shared-sweep finaliser) computing it from the same tree
    produces the same float, bit for bit.
    """
    if reachable <= 0 or total <= 0 or n <= 1:
        return 0.0
    return (reachable / (n - 1)) * (reachable / total)


def is_nonnegative_int(value) -> bool:
    # bool is an int subclass; reject it explicitly (True would silently
    # mean "1 sample")
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_positive_int(value) -> bool:
    return is_nonnegative_int(value) and value >= 1


def check_betweenness(params: dict) -> None:
    sample_size = params["sample_size"]
    if sample_size is not None and not is_positive_int(sample_size):
        raise UsageError(
            f"betweenness: sample_size must be a positive integer or None "
            f"(got {sample_size!r})"
        )


def betweenness_sources(
    csr: "CSRGraph", sample_size: int | None, seed: int
) -> tuple[list[int], float]:
    """The dense source indexes a betweenness run accumulates from, plus the
    sampling rescale factor.

    Sampling draws from the snapshot's external-ID list with the same seeded
    generator the free function always used, so sampled sources are identical
    for a given seed — shared by the runner and the plan compiler's fused
    sweep, which partitions this exact list across workers.
    """
    n = csr.n
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        return [csr.index(v) for v in rng.sample(csr.external_ids, sample_size)], n / sample_size
    return list(range(n)), 1.0


def apply_betweenness_scale(
    values: list[float], n: int, normalized: bool, scale_sources: float
) -> list[float]:
    """Final normalisation/sampling rescale, shared by the runner and the
    plan compiler's finaliser (identical arithmetic keeps them bit-identical)."""
    scale = scale_sources
    if normalized:
        scale /= (n - 1) * (n - 2)
    if scale != 1.0:
        values = [value * scale for value in values]
    return values


def closeness_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Wasserman–Faust closeness of every vertex, one sweep tree each."""
    n = csr.n
    stats = (backend.tree_stats(tree) for tree, _ in backend.sweep(csr, range(n)))
    return csr.decode([closeness_value(n, reachable, total) for reachable, total, _ in stats])


def betweenness_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Brandes betweenness of every vertex: the sweep's per-source
    dependencies summed in source order (``backend.add_delta``), then scaled."""
    n = csr.n
    if n <= 2:
        return csr.decode([0.0] * n)
    sources, scale = betweenness_sources(csr, params["sample_size"], params["seed"])
    total = None
    for _, delta in backend.sweep(csr, sources, frozenset(sources)):
        total = backend.add_delta(total, delta)
    return csr.decode(
        apply_betweenness_scale(backend.tree_delta(total), n, params["normalized"], scale)
    )


def degree_centrality(graph: Graph) -> dict[VertexId, float]:
    """Out-degree divided by ``n - 1`` (0.0 for a single-vertex graph)."""
    csr = graph.snapshot()
    n = csr.n
    if n <= 1:
        return csr.decode([0.0] * n)
    scale = 1.0 / (n - 1)
    return csr.decode([degree * scale for degree in get_backend().degrees(csr)])


def closeness_centrality(graph: Graph) -> dict[VertexId, float]:
    """Closeness of every vertex, scaled by the fraction of reachable vertices.

    For vertex ``u`` reaching ``r`` other vertices with total distance ``d``,
    closeness is ``((r) / (n - 1)) * (r / d)`` — the Wasserman–Faust variant
    that remains comparable across components.  Vertices reaching nothing get
    0.0.
    """
    return closeness_runner(graph.snapshot(), get_backend(), {})


def betweenness_centrality(
    graph: Graph,
    normalized: bool = True,
    sample_size: int | None = None,
    seed: int = 0,
) -> dict[VertexId, float]:
    """Shortest-path betweenness (Brandes 2001).

    With ``sample_size`` set, the accumulation runs only from a random sample
    of source vertices and the result is rescaled by ``n / sample_size`` —
    the usual unbiased estimate for large extracted graphs.
    """
    params = {"normalized": normalized, "sample_size": sample_size, "seed": seed}
    check_betweenness(params)
    return betweenness_runner(graph.snapshot(), get_backend(), params)


def top_k_central(centrality: dict[VertexId, float], k: int = 10) -> list[tuple[VertexId, float]]:
    """The ``k`` highest-scoring vertices of any centrality map, descending."""
    return sorted(centrality.items(), key=lambda item: (-item[1], repr(item[0])))[:k]
