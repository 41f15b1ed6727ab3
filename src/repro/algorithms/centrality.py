"""Centrality measures over the CSR execution kernel, and the source-sweep
protocol every per-source algorithm speaks.

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

**The sweep protocol.**  A sweep algorithm (closeness, betweenness, diameter,
bfs) is a *demand* ``(csr, params) -> SweepDemand | None`` and a *finish*
``(csr, backend, params, answer) -> value``, both named by its registry
entry.  An answer is ``(stats, delta, distances)``: the demand's tree stats
in its own source order, its dependency vectors summed in that order
(backend-native; ``None`` without Brandes) and its distance row.  The
runner is ``finish`` over :func:`sweep_answer`, the demand swept alone; the
plan compiler builds the same answer from its fused sweep and calls the
same ``finish``.  No demand means the empty answer ``([], None, None)``,
which each ``finish`` reads as its trivial value.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


class SweepDemand(NamedTuple):
    """What one request asks of the source sweep."""

    #: dense source indexes in the request's own order; ``None``: every
    #: vertex, ascending
    sources: list[int] | None
    #: Brandes dependency vectors, summed in source order
    brandes: bool = False
    #: the distance row of its (one) source
    distances: bool = False
    #: joins only a sweep that already covers every vertex
    rides_along: bool = False


def sweep_answer(csr: "CSRGraph", backend: "KernelBackend", demand: SweepDemand | None) -> tuple:
    """The one-demand collector: ``(stats, delta, distances)`` streamed from
    the backend's sweep over ``demand``'s sources, one dependency vector held
    at a time (see module doc)."""
    if demand is None:
        return [], None, None
    sources = range(csr.n) if demand.sources is None else demand.sources
    payload = [(source, demand.brandes, demand.distances) for source in sources]
    stats: list[tuple[int, int, int]] = []
    total = row = None
    for tree_stats, delta, distances in backend.sweep_products(csr, payload):
        stats.append(tree_stats)
        if delta is not None:
            total = backend.add_delta(total, delta)
        if distances is not None:
            row = distances
    return stats, total, row


def closeness_value(n: int, reachable: int, total: int) -> float:
    """Wasserman–Faust closeness of one vertex from its BFS-tree stats.

    A pure function of integers — ``reachable`` vertices at ``total`` summed
    hop distance in an ``n``-vertex graph — so every backend computing it
    from the same tree produces the same float, bit for bit.
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


def check_seed(name: str, seed) -> None:
    """A seed is an ``int`` (``bool`` excluded): ``None`` would seed from OS
    entropy, so the same request would answer differently each run."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f"{name}: seed must be an integer (got {seed!r})")


def check_betweenness(params: dict) -> None:
    sample_size = params["sample_size"]
    if sample_size is not None and not is_positive_int(sample_size):
        raise UsageError(
            f"betweenness: sample_size must be a positive integer or None "
            f"(got {sample_size!r})"
        )
    if not isinstance(params["normalized"], bool):
        raise UsageError(
            f"betweenness: normalized must be true or false (got {params['normalized']!r})"
        )
    check_seed("betweenness", params["seed"])


def closeness_demand(csr: "CSRGraph", params: dict) -> SweepDemand | None:
    """Every vertex's tree stats."""
    return SweepDemand(None) if csr.n else None


def closeness_finish(csr: "CSRGraph", backend: "KernelBackend", params: dict, answer) -> dict:
    n = csr.n
    stats, _, _ = answer
    return csr.decode([closeness_value(n, reachable, total) for reachable, total, _ in stats])


def closeness_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Wasserman–Faust closeness of every vertex, one sweep tree each."""
    answer = sweep_answer(csr, backend, closeness_demand(csr, params))
    return closeness_finish(csr, backend, params, answer)


def betweenness_demand(csr: "CSRGraph", params: dict) -> SweepDemand | None:
    """Brandes dependencies from every vertex, or from a seeded sample of
    ``sample_size`` external IDs; none at ``n <= 2`` (nothing lies between)."""
    n = csr.n
    if n <= 2:
        return None
    sample_size = params["sample_size"]
    if sample_size is None or sample_size >= n:
        return SweepDemand(None, brandes=True)
    rng = random.Random(params["seed"])
    sources = [csr.index(v) for v in rng.sample(csr.external_ids, sample_size)]
    return SweepDemand(sources, brandes=True)


def betweenness_finish(csr: "CSRGraph", backend: "KernelBackend", params: dict, answer) -> dict:
    """The summed dependencies, rescaled by ``n / sample_size`` when sampled
    and normalised by ``(n - 1)(n - 2)``."""
    n = csr.n
    _, total, _ = answer
    if total is None:
        return csr.decode([0.0] * n)
    sample_size = params["sample_size"]
    scale = n / sample_size if sample_size is not None and sample_size < n else 1.0
    if params["normalized"]:
        scale /= (n - 1) * (n - 2)
    values = backend.tree_delta(total)
    if scale != 1.0:
        values = [value * scale for value in values]
    return csr.decode(values)


def betweenness_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    """Brandes betweenness of every vertex: the sweep's per-source
    dependencies summed in source order (``backend.add_delta``), then scaled."""
    answer = sweep_answer(csr, backend, betweenness_demand(csr, params))
    return betweenness_finish(csr, backend, params, answer)


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
