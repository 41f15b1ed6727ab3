"""DEDUP-1 — the condensed, deduplicated representation.

Structurally identical to C-DUP (real nodes, virtual nodes, direct edges) but
guaranteed to contain **at most one path between any pair of real nodes**, so
neighbor iteration needs no hash set: a plain depth-first walk through the
virtual nodes yields each neighbor exactly once (Section 4.3, "DEDUP-1").

Instances are normally produced by one of the deduplication algorithms in
:mod:`repro.dedup`; constructing one directly from a duplicated condensed
graph raises unless ``trusted=True`` (used by the algorithms themselves, which
guarantee the invariant).
"""

from __future__ import annotations

from repro.exceptions import RepresentationError
from repro.graph.condensed import CondensedGraph
from repro.graph.condensed_base import CondensedBackedGraph


class Dedup1Graph(CondensedBackedGraph):
    """Graph API over a duplication-free condensed graph."""

    representation_name = "DEDUP-1"

    def __init__(self, condensed: CondensedGraph, trusted: bool = False) -> None:
        super().__init__(condensed)
        if not trusted and condensed.has_duplication():
            raise RepresentationError(
                "condensed graph has duplicate paths; pass it through a "
                "deduplication algorithm (repro.dedup) before wrapping it in Dedup1Graph"
            )

    def _internal_neighbors_list(self, node: int) -> list[int]:
        # no hash set required: the deduplication invariant guarantees each
        # real target is reached by exactly one path
        return self._cg.reachable_real_targets(node)

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in self.get_vertices())
