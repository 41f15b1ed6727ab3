"""Built-in vertex-centric programs.

Degree, PageRank and Connected Components are the three algorithms the paper
benchmarks on its vertex-centric framework (Figure 11) and on the Giraph port
(Table 4).  Single-Source Shortest Paths and Label Propagation are additional
programs in the same style, provided so that users have ready-made building
blocks for path and community analyses on extracted graphs.
"""

from __future__ import annotations

from collections import Counter

from repro.graph.api import Graph, VertexId
from repro.vertexcentric.framework import Executor, RunStatistics, VertexCentric, VertexContext


class DegreeProgram(Executor):
    """Store each vertex's logical out-degree in the ``degree`` value."""

    def compute(self, ctx: VertexContext) -> None:
        ctx.set_value(ctx.degree(), key="degree")
        ctx.vote_to_halt()


class PageRankProgram(Executor):
    """Classic synchronous PageRank with a fixed number of iterations.

    Dangling vertices (out-degree zero) redistribute their rank uniformly
    through a sum aggregator, matching the direct kernel's correction: the
    mass they hold after superstep ``k`` reaches every vertex in superstep
    ``k + 1``.

    Scatter-gather through the kernel backend: each superstep a vertex
    publishes its out-share (``rank / degree``) in the ``share`` value slot,
    and the next superstep pulls the neighbor sum with ``ctx.gather_sum`` —
    one backend segment-sum over the whole snapshot (vectorised on
    ``numpy``) instead of a per-vertex, per-neighbor dict-lookup loop.  The
    framework is GAS-style, so "incoming" contributions are emulated by
    gathering from out-neighbors, which is exact on the symmetric graphs the
    paper extracts.  The share a neighbor published is the same
    ``rank / degree`` quotient the old per-neighbor loop recomputed; on the
    ``python`` backend the segment sum adds them in the same snapshot target
    order, so results are bit-identical to the pre-backend program, while
    the ``numpy`` backend's ``reduceat`` re-associates the additions within
    the documented 1e-9 tolerance.  Parallel runs stay bit-identical to
    serial runs *per backend* (same per-segment reduction either way).
    """

    def __init__(self, iterations: int = 20, damping: float = 0.85) -> None:
        self.iterations = iterations
        self.damping = damping

    def compute(self, ctx: VertexContext) -> None:
        n = ctx.num_vertices()
        degree = ctx.degree()
        if ctx.superstep == 0:
            rank = 1.0 / n
            ctx.set_value(rank, key="rank")
            # the paper precomputes degrees before running PageRank because
            # condensed representations cannot read them for free
            ctx.set_value(degree, key="degree")
            ctx.set_value(rank / degree if degree else 0.0, key="share")
            if degree == 0:
                ctx.aggregate("dangling", rank)
            return
        total = ctx.gather_sum("share")
        dangling_mass = ctx.get_aggregate("dangling")
        rank = (1.0 - self.damping) / n + self.damping * (total + dangling_mass / n)
        ctx.set_value(rank, key="rank")
        ctx.set_value(rank / degree if degree else 0.0, key="share")
        if degree == 0:
            ctx.aggregate("dangling", rank)
        if ctx.superstep >= self.iterations:
            ctx.vote_to_halt()


class ConnectedComponentsProgram(Executor):
    """Minimum-label propagation; labels stabilise at the component minimum.

    Duplicate-insensitive, so it is safe to run directly on C-DUP.  Like the
    paper's extracted graphs, the input is assumed to be symmetric (labels
    only travel along out-edges); use
    :func:`repro.algorithms.connected_components` for arbitrary directed
    graphs.
    """

    def compute(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            ctx.set_value(_label(ctx.vertex), key="component")
            return
        current = ctx.get_value(key="component", default=_label(ctx.vertex))
        best = current
        for neighbor in ctx.neighbors():
            candidate = ctx.get_neighbor_value(
                neighbor, key="component", default=_label(neighbor)
            )
            if candidate < best:
                best = candidate
        if best < current:
            ctx.set_value(best, key="component")
            # a lowered label may allow neighbors to lower theirs next round
            for neighbor in ctx.neighbors():
                ctx.activate(neighbor)
        ctx.vote_to_halt()


def _label(vertex: VertexId) -> tuple[str, str]:
    """Totally ordered label for arbitrary (mixed-type) vertex identifiers."""
    return (type(vertex).__name__, repr(vertex))


class SingleSourceShortestPathsProgram(Executor):
    """Hop distance from a single source by synchronous relaxation.

    Unweighted edges: after superstep ``k`` every vertex within ``k`` hops of
    the source holds its exact BFS distance.  Like the other programs, labels
    travel along out-edges, which is exact for the symmetric graphs GraphGen
    extracts.
    """

    def __init__(self, source: VertexId) -> None:
        self.source = source

    def compute(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            ctx.set_value(0 if ctx.vertex == self.source else None, key="distance")
            return
        current = ctx.get_value(key="distance")
        best = current
        for neighbor in ctx.neighbors():
            neighbor_distance = ctx.get_neighbor_value(neighbor, key="distance")
            if neighbor_distance is None:
                continue
            candidate = neighbor_distance + 1
            if best is None or candidate < best:
                best = candidate
        if best != current:
            ctx.set_value(best, key="distance")
            for neighbor in ctx.neighbors():
                ctx.activate(neighbor)
        ctx.vote_to_halt()


class LabelPropagationProgram(Executor):
    """Community detection by synchronous majority label propagation.

    Every vertex starts in its own community and repeatedly adopts the most
    frequent label among its neighbors (ties broken by the smaller label, so
    the execution is deterministic).  Stops when no label changes or the
    superstep limit is reached.
    """

    def compute(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            ctx.set_value(_label(ctx.vertex), key="community")
            return
        current = ctx.get_value(key="community", default=_label(ctx.vertex))
        counts: Counter = Counter()
        for neighbor in ctx.neighbors():
            if neighbor == ctx.vertex:
                continue
            counts[ctx.get_neighbor_value(neighbor, key="community", default=_label(neighbor))] += 1
        if counts:
            best_count = max(counts.values())
            best = min(label for label, count in counts.items() if count == best_count)
            if best != current:
                ctx.set_value(best, key="community")
                for neighbor in ctx.neighbors():
                    ctx.activate(neighbor)
        ctx.vote_to_halt()


# --------------------------------------------------------------------------- #
# convenience wrappers
# --------------------------------------------------------------------------- #
def _run(graph, program, key, max_supersteps, parallelism, snapshot_path, backend, pool):
    """Run ``program`` to completion; ``(values under key, statistics)``."""
    coordinator = VertexCentric(
        graph, parallelism=parallelism, snapshot_path=snapshot_path, backend=backend, pool=pool
    )
    stats = coordinator.run(program, max_supersteps=max_supersteps)
    return coordinator.values(key), stats


def run_degree(
    graph: Graph,
    parallelism: int = 1,
    snapshot_path: str | None = None,
    backend: str | None = None,
    pool=None,
) -> tuple[dict[VertexId, int], RunStatistics]:
    return _run(graph, DegreeProgram(), "degree", 2, parallelism, snapshot_path, backend, pool)


def run_pagerank(
    graph: Graph,
    iterations: int = 20,
    damping: float = 0.85,
    parallelism: int = 1,
    snapshot_path: str | None = None,
    backend: str | None = None,
    pool=None,
) -> tuple[dict[VertexId, float], RunStatistics]:
    program = PageRankProgram(iterations, damping)
    return _run(graph, program, "rank", iterations + 2, parallelism, snapshot_path, backend, pool)


def run_connected_components(
    graph: Graph,
    max_supersteps: int = 200,
    parallelism: int = 1,
    snapshot_path: str | None = None,
    backend: str | None = None,
    pool=None,
) -> tuple[dict[VertexId, object], RunStatistics]:
    program = ConnectedComponentsProgram()
    return _run(
        graph, program, "component", max_supersteps, parallelism, snapshot_path, backend, pool
    )


def run_sssp(
    graph: Graph,
    source: VertexId,
    max_supersteps: int = 200,
    parallelism: int = 1,
    snapshot_path: str | None = None,
    backend: str | None = None,
    pool=None,
) -> tuple[dict[VertexId, int | None], RunStatistics]:
    program = SingleSourceShortestPathsProgram(source)
    return _run(
        graph, program, "distance", max_supersteps, parallelism, snapshot_path, backend, pool
    )


def run_label_propagation(
    graph: Graph,
    max_supersteps: int = 50,
    parallelism: int = 1,
    snapshot_path: str | None = None,
    backend: str | None = None,
    pool=None,
) -> tuple[dict[VertexId, object], RunStatistics]:
    program = LabelPropagationProgram()
    return _run(
        graph, program, "community", max_supersteps, parallelism, snapshot_path, backend, pool
    )
