"""Delta-BFS: repair a distance map from the changed frontiers.

With insertions only, exact previous distances are an *over*-estimate
nowhere and an under-estimate nowhere — a new edge ``u -> v`` can only
shorten paths through ``v``.  Nearest-first relaxation seeded from the
added edges' improved endpoints therefore converges to the exact new
distance map while visiting only the region the delta actually improved:
the previous dense vector is copied (appended vertices start unreached) and
never re-keyed, so the cost is that one copy plus the improved region.

Fallbacks (return ``None``):

* any net removal whose endpoints look like a shortest-path tree edge
  (``dist(v) == dist(u) + 1``) — the removal may lengthen or disconnect;
  removals provably off every shortest path are ignored instead;
* a depth-limited previous result (``max_depth``): repaired frontiers could
  not distinguish "beyond the horizon" from "unreached".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.incremental.base import DeltaView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def maintain_bfs(
    prev: list[int],
    csr: "CSRGraph",
    delta: DeltaView,
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

    def prior(vertex) -> int:
        dense = index[vertex]
        return prev[dense] if dense < known else -1

    for u, v in delta.removed:
        du = prior(u)
        if du >= 0 and prior(v) == du + 1:
            return None  # possibly a tree edge: repair is not monotone
        # otherwise the removed edge lay on no shortest path; ignore it

    # the previous vector is exact on its prefix; appended vertices start
    # unreached.  Relaxation touches only the region the delta improved.
    distances = prev + [-1] * (csr.n - known)
    offsets = csr.offsets
    targets = csr.targets
    seeds: dict[int, list[int]] = {}  # improved distance -> endpoints
    for u, v in delta.added:
        iu, iv = index[u], index[v]
        du = distances[iu]
        if du >= 0 and (distances[iv] < 0 or distances[iv] > du + 1):
            distances[iv] = du + 1
            seeds.setdefault(du + 1, []).append(iv)
    # level by level, nearest first: a vertex is expanded once, at its final
    # distance, however many added edges improve the same region
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
