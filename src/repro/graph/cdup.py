"""C-DUP — the condensed, duplicated representation.

This is exactly the structure that comes out of the extraction pipeline.  It
may contain multiple paths between the same pair of real nodes, so
:meth:`get_neighbors` performs *on-the-fly deduplication*: a depth-first
traversal through the virtual nodes that keeps a hash set of real targets
already produced and skips repeats (Section 4.3, "C-DUP").

It is the cheapest representation to build (no preprocessing) and usually the
smallest, but neighbor iteration pays a per-call hashing cost, and algorithms
touching the whole graph pay it for every vertex.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.condensed import CondensedGraph
from repro.graph.condensed_base import CondensedBackedGraph


class CDupGraph(CondensedBackedGraph):
    """Graph API over a (possibly duplicated) condensed graph."""

    representation_name = "C-DUP"

    def __init__(self, condensed: CondensedGraph) -> None:
        super().__init__(condensed)

    def _internal_neighbors(self, node: int) -> Iterator[int]:
        seen: set[int] = set()
        stack = list(self._cg.out(node))
        while stack:
            current = stack.pop()
            if CondensedGraph.is_real(current):
                if current not in seen:
                    seen.add(current)
                    yield current
            else:
                stack.extend(self._cg.out(current))

    def _internal_neighbors_list(self, node: int) -> list[int]:
        # snapshot fast path: same on-the-fly deduplicating walk, but as a
        # tight loop over the raw adjacency dict instead of a generator
        succ = self._cg.succ
        seen: set[int] = set()
        add = seen.add
        result: list[int] = []
        push = result.append
        stack = list(succ[node])
        extend = stack.extend
        while stack:
            current = stack.pop()
            if current >= 0:
                if current not in seen:
                    add(current)
                    push(current)
            else:
                extend(succ[current])
        return result

    # ------------------------------------------------------------------ #
    def duplication_ratio(self) -> float:
        """Average number of redundant paths per logical edge (0.0 = clean)."""
        logical = 0
        redundant = 0
        for node in self._cg.real_nodes():
            seen: set[int] = set()
            for target in self._cg.reachable_real_targets(node):
                if target in seen:
                    redundant += 1
                else:
                    seen.add(target)
            logical += len(seen)
        if logical == 0:
            return 0.0
        return redundant / logical

    def num_edges(self) -> int:
        return self._cg.expanded_edge_count()
