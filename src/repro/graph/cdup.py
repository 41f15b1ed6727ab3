"""C-DUP — the condensed, duplicated representation.

This is exactly the structure that comes out of the extraction pipeline.  It
may contain multiple paths between the same pair of real nodes, so
:meth:`get_neighbors` performs *on-the-fly deduplication*: the plain
depth-first walk through the virtual nodes
(:meth:`~repro.graph.condensed.CondensedGraph.reachable_real_targets`), with
every real target after its first occurrence dropped through a hash table
(Section 4.3, "C-DUP").

It is the cheapest representation to build (no preprocessing) and usually the
smallest, but neighbor iteration pays a per-call hashing cost, and algorithms
touching the whole graph pay it for every vertex.
"""

from __future__ import annotations

from repro.graph.condensed_base import CondensedBackedGraph


class CDupGraph(CondensedBackedGraph):
    """Graph API over a (possibly duplicated) condensed graph."""

    representation_name = "C-DUP"

    def _internal_neighbors_list(self, node: int) -> list[int]:
        # on-the-fly deduplication of the plain walk, first occurrence kept
        return list(dict.fromkeys(self._cg.reachable_real_targets(node)))

    # ------------------------------------------------------------------ #
    def duplication_ratio(self) -> float:
        """Average number of redundant paths per logical edge (0.0 = clean)."""
        logical = 0
        redundant = 0
        for node in self._cg.real_nodes():
            walk = self._cg.reachable_real_targets(node)
            distinct = len(set(walk))
            logical += distinct
            redundant += len(walk) - distinct
        if logical == 0:
            return 0.0
        return redundant / logical

    def num_edges(self) -> int:
        return self._cg.expanded_edge_count()
