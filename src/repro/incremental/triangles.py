"""Dynamic triangle counts: repair the per-vertex vector pair by pair.

The carried vector is ``backend.triangles_per_vertex``'s: for each vertex,
the triangles of the undirected view (``u ~ v`` iff ``u -> v`` or
``v -> u``, self-loops dropped) it is a corner of.  ``triangles`` and
``clustering`` are both shaped from it, so one maintainer serves both.

A window changes the undirected view only where a pair's adjacency flips,
and flipping one pair ``{u, v}`` changes exactly the triangles through it:
one per common neighbour ``w``, counted at ``u``, ``v`` and ``w``.  So the
repair is

1. net the window's directed pairs into the undirected pairs whose
   adjacency differs between the old and new graphs.  A touched direction
   was present before the window iff it is in ``prior_present``; an
   untouched one reads the same in both graphs, off the current snapshot;
2. rebuild the *old* neighbourhoods of those pairs' endpoints only — the
   new undirected row with the changed pairs undone;
3. apply the removals, then the additions, one pair at a time, each adding
   or subtracting ``|N(u) ∩ N(v)|`` at ``u`` and at ``v`` and 1 at every
   common neighbour, over the endpoints' neighbourhoods as they stand after
   the pairs before it.

Counts are integers, so the result equals a cold pass exactly, for any
window: there is no refusal and no width budget.  The cost is the changed
pairs' neighbourhood intersections plus one undirected-view derivation per
snapshot (``backend.warm_undirected``, which ``clustering`` reads too).
Appended vertices start at zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.incremental.base import RepairCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.delta import DeltaOverlay
    from repro.graph.kernel import CSRGraph


def maintain_triangles(
    prev: list[int],
    csr: "CSRGraph",
    delta: "DeltaOverlay",
    params: dict,
    backend: "KernelBackend",
) -> list[int]:
    index = csr._index
    offsets, targets = csr.offsets, csr.targets
    # each touched directed pair (dense) -> (present before, present now)
    states: dict[tuple[int, int], tuple[bool, bool]] = {}
    for pairs, now in ((delta.added, True), (delta.removed, False)):
        for pair in pairs:
            states[index[pair[0]], index[pair[1]]] = (pair in delta.prior_present, now)

    def state(a: int, b: int) -> tuple[bool, bool]:
        touched = states.get((a, b))
        if touched is not None:
            return touched
        present = b in targets[offsets[a] : offsets[a + 1]]
        return present, present

    removals: list[tuple[int, int]] = []
    additions: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in states:
        pair = (a, b) if a < b else (b, a)
        if a == b or pair in seen:
            continue
        seen.add(pair)
        (old_ab, new_ab), (old_ba, new_ba) = state(a, b), state(b, a)
        was, now = old_ab or old_ba, new_ab or new_ba
        if was != now:
            (removals if was else additions).append(pair)
    RepairCounters.triangle_pairs += len(removals) + len(additions)

    counts = prev + [0] * (csr.n - len(prev))
    if not removals and not additions:
        return counts

    backend.warm_undirected(csr)
    und_offsets, und_targets = csr.undirected_csr()
    neighbours: dict[int, set[int]] = {}
    for pair in removals + additions:
        for x in pair:
            if x not in neighbours:
                neighbours[x] = set(und_targets[und_offsets[x] : und_offsets[x + 1]])
    # undo the window: the endpoints' neighbourhoods in the old graph
    for u, v in additions:
        neighbours[u].discard(v)
        neighbours[v].discard(u)
    for u, v in removals:
        neighbours[u].add(v)
        neighbours[v].add(u)

    for pairs, sign, link in ((removals, -1, set.discard), (additions, 1, set.add)):
        for u, v in pairs:
            common = neighbours[u] & neighbours[v]
            counts[u] += sign * len(common)
            counts[v] += sign * len(common)
            for w in common:
                counts[w] += sign
            link(neighbours[u], v)
            link(neighbours[v], u)
    return counts
