"""BITMAP-2 preprocessing (Sections 5.1.2 / 5.1.3).

Setting the *minimum* number of bitmaps is equivalent to set cover and
therefore NP-hard; BITMAP-2 uses the standard greedy set-cover heuristic:

* single-layer — for each real node ``u``, repeatedly pick the virtual node
  covering the most not-yet-covered neighbors, give it a bitmap whose set bits
  are exactly those newly covered neighbors, and finally *delete* the edges
  from ``u`` to the virtual nodes that contribute nothing new;
* multi-layer — the same principle is applied level by level: the traversal
  descends first into the sub-tree that reaches the most uncovered targets,
  bitmaps are set at every virtual node, and bits leading to sub-trees with no
  new coverage are cleared (the edges between virtual nodes are never deleted
  because other real nodes may still need them).

Compared to BITMAP-1 this stores far fewer bitmaps (only on the chosen
covering virtual nodes) at a higher preprocessing cost.
"""

from __future__ import annotations

from repro.dedup.base import remove_parallel_direct_edges
from repro.graph.bitmap import BitmapGraph
from repro.graph.condensed import CondensedGraph


def _reachable_real(condensed: CondensedGraph, virtual: int, cache: dict[int, set[int]]) -> set[int]:
    """Real nodes reachable from a virtual node (memoised per preprocessing run)."""
    if virtual in cache:
        return cache[virtual]
    result: set[int] = set()
    for target in condensed.out(virtual):
        if condensed.is_real(target):
            result.add(target)
        else:
            result |= _reachable_real(condensed, target, cache)
    cache[virtual] = result
    return result


def _cover_subtree(
    condensed: CondensedGraph,
    graph: BitmapGraph,
    source: int,
    virtual: int,
    covered: set[int],
    reach_cache: dict[int, set[int]],
    visited: set[int],
) -> bool:
    """Set bitmaps below ``virtual`` so that exactly the uncovered targets get
    emitted; returns True if the sub-tree contributed any new coverage."""
    if virtual in visited:
        # already configured for this source; it contributes nothing further
        return False
    visited.add(virtual)

    targets = condensed.out(virtual)
    # order virtual children by how many uncovered targets they can reach
    # (greedy, mirroring the paper's multi-layer descent rule)
    child_order = sorted(
        range(len(targets)),
        key=lambda position: -len(_reachable_real(condensed, targets[position], reach_cache))
        if condensed.is_virtual(targets[position])
        else 0,
    )
    bitmask = 0
    contributed = False
    for position in child_order:
        target = targets[position]
        if condensed.is_real(target):
            if target not in covered:
                covered.add(target)
                bitmask |= 1 << position
                contributed = True
        else:
            if _reachable_real(condensed, target, reach_cache) - covered:
                useful = _cover_subtree(
                    condensed, graph, source, target, covered, reach_cache, visited
                )
                if useful:
                    bitmask |= 1 << position
                    contributed = True
            # sub-trees with nothing new keep their bit cleared: the traversal
            # is pruned but the virtual-virtual edge is preserved for others
    graph.set_bitmap(virtual, source, bitmask)
    return contributed


def preprocess(condensed: CondensedGraph) -> BitmapGraph:
    """Run BITMAP-2 and return a ready-to-query :class:`BitmapGraph`.

    Edges from a real node to a virtual node that contributes no new coverage
    for that real node are deleted (paper: "the edges from us to those nodes
    are simply deleted since there is no reason to traverse those").
    """
    working = condensed.copy()
    remove_parallel_direct_edges(working)
    graph = BitmapGraph(working)
    reach_cache: dict[int, set[int]] = {}

    for source in list(working.real_nodes()):
        covered: set[int] = {t for t in working.out(source) if working.is_real(t)}
        first_layer = [v for v in working.out(source) if working.is_virtual(v)]
        visited: set[int] = set()

        remaining = set(first_layer)
        while remaining:
            # greedy set cover: pick the virtual node reaching the most
            # uncovered targets
            best = max(
                remaining,
                key=lambda v: len(_reachable_real(working, v, reach_cache) - covered),
            )
            gain = _reachable_real(working, best, reach_cache) - covered
            if not gain:
                break
            _cover_subtree(working, graph, source, best, covered, reach_cache, visited)
            remaining.discard(best)

        # anything left in ``remaining`` covers nothing new: drop the edge
        for useless in remaining:
            working.remove_edge(source, useless)
    return graph
