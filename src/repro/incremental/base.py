"""What the dynamic-algorithm maintainers share: the one boundary where
their dense vectors meet external vertex IDs, and their work counters."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph


class RepairCounters:
    """Process-global instrumentation (read as deltas, like
    ``TraversalCounters``): the clock-free work pins of the repairs."""

    #: vertices the BFS removal repair reset (on a pure removal window: the
    #: vertices whose distance grew)
    bfs_resets = 0
    #: netted undirected pairs the triangle repair processed: those whose
    #: adjacency differs between the window's old and new graphs
    triangle_pairs = 0


def encode(csr: "CSRGraph", values: dict) -> list:
    """A decoded (external-ID keyed) result as the per-dense-index vector the
    maintainers carry; a vertex without an entry (BFS: unreached) holds ``-1``."""
    return [values.get(vertex, -1) for vertex in csr.external_ids]


def decode(maintainer: str, csr: "CSRGraph", dense: list, algorithm: str | None = None) -> Any:
    """A dense vector as the value a result reports: for BFS a fresh
    external-ID keyed dict without the unreached vertices (``-1``); for
    ``triangle-counts`` the requesting ``algorithm``'s own shape (a count, a
    mean coefficient), by the arithmetic of a cold plan; else a fresh
    external-ID keyed dict.  The one decoder of the maintainable
    algorithms: their runners, a plan's inline and sweep paths and an
    incremental serve all decode here."""
    if maintainer == "bfs":
        return {v: d for v, d in zip(csr.external_ids, dense) if d >= 0}
    if maintainer == "triangle-counts":
        # deferred: the registry's module imports the plan compiler, which
        # imports this one
        from repro.session.plan import PLAN_ALGORITHMS

        return PLAN_ALGORITHMS[algorithm].from_triangles(csr, dense)
    return csr.decode(dense)
