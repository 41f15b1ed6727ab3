"""Delta-BFS: repair a distance map from the changed frontiers.

The previous distances are exact, so a window moves them in two directions
only.  A new edge ``u -> v`` can only *shorten* paths through ``v``; a
removed edge can only *lengthen* paths, and only below a shortest-path-tree
edge (``dist(v) == dist(u) + 1``) — a removal off every shortest path is
ignored.  Both directions are repaired exactly (decremental unit-weight
SSSP in the style of Ramalingam and Reps, then the insertions):

1. removals: from the heads of the removed tight edges, nearest-first by
   previous distance, a vertex is *affected* iff no unaffected in-neighbour
   sits one level closer — for a pure removal window exactly the vertices
   whose distance grows.  Only an affected vertex's tight children are
   examined next.  Each affected vertex is reset and seeded from its best
   unaffected in-neighbour (:attr:`RepairCounters.bfs_resets` counts them);
2. insertions: an added edge's head is seeded where the edge improves it;
3. nearest-first relaxation from the seeds converges to the exact new map.

The previous dense vector is copied (appended vertices start unreached) and
never re-keyed, so the cost is that one copy plus the region the window
changed.  In-neighbours come from the snapshot's reverse CSR
(``backend.reverse_csr``, one derivation per snapshot), built only when some
removal is tight: an add-only window never derives it.

Fallbacks (return ``None``):

* a depth-limited previous result (``max_depth``): repaired frontiers could
  not distinguish "beyond the horizon" from "unreached";
* a source outside the previous prefix (or not at distance zero in it): the
  previous result is not a full-depth map from that source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.incremental.base import RepairCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.delta import DeltaOverlay
    from repro.graph.kernel import CSRGraph


def maintain_bfs(
    prev: list[int],
    csr: "CSRGraph",
    delta: "DeltaOverlay",
    params: dict,
    backend: "KernelBackend",
) -> list[int] | None:
    if params.get("max_depth") is not None:
        return None
    index = csr._index
    known = len(prev)
    source = index.get(params["source"])
    if source is None or source >= known or prev[source] != 0:
        return None  # previous result is not a full-depth map from source

    # the previous vector is exact on its prefix; appended vertices start
    # unreached.  Relaxation touches only the region the delta changed.
    distances = prev + [-1] * (csr.n - known)
    seeds: dict[int, list[int]] = {}  # tentative distance -> vertices to expand
    heads = []
    for u, v in delta.removed:
        iu, iv = index[u], index[v]
        if distances[iu] >= 0 and distances[iv] == distances[iu] + 1:
            heads.append(iv)
        # otherwise the removed edge lay on no shortest path; ignore it
    if heads:
        _reset_lengthened(distances, heads, csr, backend, seeds)

    offsets = csr.offsets
    targets = csr.targets
    for u, v in delta.added:
        iu, iv = index[u], index[v]
        du = distances[iu]
        if du >= 0 and (distances[iv] < 0 or distances[iv] > du + 1):
            distances[iv] = du + 1
            seeds.setdefault(du + 1, []).append(iv)
    # level by level, nearest first: a vertex is expanded once, at its final
    # distance, however many seeds improve the same region
    frontier: list[int] = []
    depth = 0
    while frontier or seeds:
        if not frontier:
            depth = min(seeds)
        frontier += seeds.pop(depth, ())
        reached: list[int] = []
        for current in frontier:
            if distances[current] != depth:
                continue  # improved again since it was queued
            for neighbor in targets[offsets[current] : offsets[current + 1]]:
                if distances[neighbor] < 0 or distances[neighbor] > depth + 1:
                    distances[neighbor] = depth + 1
                    reached.append(neighbor)
        frontier = reached
        depth += 1
    return distances


def _reset_lengthened(
    distances: list[int],
    heads: list[int],
    csr: "CSRGraph",
    backend: "KernelBackend",
    seeds: dict[int, list[int]],
) -> None:
    """Reset (to ``-1``) every vertex the removals may have lengthened and
    seed each from its best unaffected in-neighbour.

    ``distances`` holds the previous map; ``heads`` are the heads of the
    removed tight edges.  Levels are decided nearest first, so when a level
    is examined every vertex one level closer is final: still at its previous
    distance if unaffected, already reset if not.
    """
    in_offsets, in_sources = backend.reverse_csr(csr)
    offsets, targets = csr.offsets, csr.targets
    pending: dict[int, list[int]] = {}  # previous distance -> candidates
    for v in heads:
        pending.setdefault(distances[v], []).append(v)
    affected: list[int] = []
    while pending:
        level = min(pending)
        children: list[int] = []
        for v in pending.pop(level):
            if distances[v] != level:
                continue  # reset already, through another removed edge or parent
            if any(
                distances[w] == level - 1
                for w in in_sources[in_offsets[v] : in_offsets[v + 1]]
            ):
                continue  # an unaffected vertex one level closer still holds it
            distances[v] = -1
            affected.append(v)
            children.extend(
                w for w in targets[offsets[v] : offsets[v + 1]] if distances[w] == level + 1
            )
        if children:
            pending.setdefault(level + 1, []).extend(children)
    RepairCounters.bfs_resets += len(affected)
    # every affected vertex is reset before any is seeded, so each seed is one
    # hop past an unaffected vertex's (still achievable) distance
    reseeds: list[tuple[int, int]] = []
    for v in affected:
        reached = [
            distances[w]
            for w in in_sources[in_offsets[v] : in_offsets[v + 1]]
            if distances[w] >= 0
        ]
        if reached:
            reseeds.append((min(reached) + 1, v))
    for depth, v in reseeds:
        distances[v] = depth
        seeds.setdefault(depth, []).append(v)
