"""BITMAP-1 preprocessing (Section 5.1.1).

For every real node ``u`` a depth-first traversal from ``u_s`` records, in a
hash set ``H_u``, the real nodes already reachable; every *penultimate*
virtual node visited (one with at least one real out-neighbor) receives a
bitmap for ``u`` whose bits select exactly the out-edges leading to real nodes
not yet in ``H_u``.  Out-edges to other virtual nodes are always followed
(their bit is kept set), so the approach works for multi-layer graphs too.

The number of condensed edges is unchanged; only bitmaps are added.  This is
the fastest preprocessing algorithm (the paper's worst case is
O(n_r * d^(k+1))) but it creates a bitmap on every penultimate virtual node a
node can reach.
"""

from __future__ import annotations

from repro.dedup.base import remove_parallel_direct_edges
from repro.graph.bitmap import BitmapGraph
from repro.graph.condensed import CondensedGraph


def preprocess(condensed: CondensedGraph) -> BitmapGraph:
    """Run BITMAP-1 and return a ready-to-query :class:`BitmapGraph`."""
    working = condensed.copy()
    remove_parallel_direct_edges(working)
    graph = BitmapGraph(working)

    for source in working.real_nodes():
        seen: set[int] = set()
        # direct real targets are always emitted by the traversal, so they
        # must be claimed before any bitmap bit is granted
        for target in working.out(source):
            if working.is_real(target):
                seen.add(target)

        visited_virtual: set[int] = set()
        stack = [v for v in working.out(source) if working.is_virtual(v)]
        while stack:
            virtual = stack.pop()
            if virtual in visited_virtual:
                continue
            visited_virtual.add(virtual)
            targets = working.out(virtual)
            has_real_out = any(working.is_real(t) for t in targets)
            bitmask = 0
            for position, target in enumerate(targets):
                if working.is_virtual(target):
                    bitmask |= 1 << position
                    stack.append(target)
                else:
                    if target not in seen:
                        seen.add(target)
                        bitmask |= 1 << position
            if has_real_out:
                graph.set_bitmap(virtual, source, bitmask)
    return graph
