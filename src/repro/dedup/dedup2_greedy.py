"""Greedy construction of the DEDUP-2 representation (Appendix B).

The input must be a *single-layer, symmetric* condensed graph — every virtual
node ``V`` satisfies ``I(V) = O(V)``, so it can be treated as a clique over a
member set ``M(V)``.  The output is a :class:`~repro.graph.dedup2.Dedup2Graph`
whose logical (self-loop-free) edge set equals the input's and which is
duplicate-free.

The implementation follows the spirit of the paper's algorithm — virtual
nodes are admitted one at a time (largest first) into a partially constructed
deduplicated graph; overlaps with existing groups are handled by *splitting*
the incoming member set into groups, connecting groups with virtual-virtual
edges when that is safe, and falling back to small (pair/singleton) virtual
nodes for the leftovers — while using an explicit covered-pair map so that
every insertion is provably safe.  This is a conservative variant of the
Appendix-B pseudo-code (which defers edge insertion through a constraint map
``m``); it favours correctness and produces the same kind of structure
(member groups + undirected virtual-virtual edges + singleton groups).
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import DeduplicationError
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup2 import Dedup2Graph


def _pair(a: Hashable, b: Hashable) -> tuple[Hashable, Hashable]:
    """Canonical unordered pair key."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


def check_symmetric_single_layer(condensed: CondensedGraph) -> None:
    """Raise unless the condensed graph is single-layer with I(V) = O(V)."""
    if not condensed.is_single_layer():
        raise DeduplicationError("DEDUP-2 requires a single-layer condensed graph")
    for virtual in condensed.virtual_nodes():
        in_set = set(condensed.virtual_in_real(virtual))
        out_set = set(condensed.virtual_out_real(virtual))
        if in_set != out_set:
            raise DeduplicationError(
                "DEDUP-2 requires a symmetric condensed graph "
                f"(virtual node {virtual} has I(V) != O(V))"
            )
    for node in condensed.real_nodes():
        for target in condensed.out(node):
            if condensed.is_real(target):
                # direct edges must also be symmetric
                if not condensed.has_edge(target, node):
                    raise DeduplicationError(
                        "DEDUP-2 requires a symmetric condensed graph "
                        f"(direct edge {node}->{target} has no reverse)"
                    )


class _Builder:
    """Incrementally builds a duplicate-free Dedup2Graph pair by pair."""

    def __init__(self) -> None:
        self.graph = Dedup2Graph()
        self.covered: set[tuple[Hashable, Hashable]] = set()

    # -------------------------------------------------------------- #
    def covered_pair(self, a: Hashable, b: Hashable) -> bool:
        return _pair(a, b) in self.covered

    def _mark_clique(self, members: list[Hashable]) -> None:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                self.covered.add(_pair(a, b))

    def _mark_cross(self, left: list[Hashable], right: list[Hashable]) -> None:
        for a in left:
            for b in right:
                if a != b:
                    self.covered.add(_pair(a, b))

    # -------------------------------------------------------------- #
    def add_group(self, members: list[Hashable]) -> int:
        """Create a virtual node over ``members`` (all pairs must be uncovered)."""
        virtual = self.graph.new_virtual_node(members)
        self._mark_clique(members)
        return virtual

    def can_connect(self, first: int, second: int) -> bool:
        """True if connecting two groups would not double-cover any pair."""
        left = self.graph.members(first)
        right = self.graph.members(second)
        for a in left:
            for b in right:
                if a != b and self.covered_pair(a, b):
                    return False
        return True

    def connect(self, first: int, second: int) -> None:
        self.graph.connect_virtual(first, second)
        self._mark_cross(self.graph.members(first), self.graph.members(second))


def _grow_groups(
    builder: _Builder, members: list[Hashable]
) -> list[list[Hashable]]:
    """Greedily partition ``members`` into groups whose internal pairs are all
    still uncovered (each group will become one virtual node)."""
    groups: list[list[Hashable]] = []
    for member in members:
        placed = False
        for group in groups:
            if all(not builder.covered_pair(member, other) for other in group):
                group.append(member)
                placed = True
                break
        if not placed:
            groups.append([member])
    return groups


def deduplicate(condensed: CondensedGraph) -> Dedup2Graph:
    """Build a DEDUP-2 representation equivalent to ``condensed``.

    The logical edge sets are compared *ignoring self-loops* (DEDUP-2 cannot
    represent them; see :mod:`repro.graph.dedup2`).
    """
    check_symmetric_single_layer(condensed)

    builder = _Builder()
    for node in condensed.real_nodes():
        builder.graph.add_vertex(
            condensed.external(node), **condensed.node_properties.get(node, {})
        )

    # clique member sets, largest first (paper: most constrained first)
    cliques: list[list[Hashable]] = []
    for virtual in condensed.virtual_nodes():
        members = sorted(
            {condensed.external(n) for n in condensed.virtual_out_real(virtual)}, key=repr
        )
        if len(members) >= 1:
            cliques.append(members)
    # symmetric direct edges act as 2-member cliques
    seen_direct: set[tuple[Hashable, Hashable]] = set()
    for node in condensed.real_nodes():
        for target in condensed.out(node):
            if condensed.is_real(target) and target != node:
                key = _pair(condensed.external(node), condensed.external(target))
                if key not in seen_direct:
                    seen_direct.add(key)
                    cliques.append(list(key))
    cliques.sort(key=len, reverse=True)

    for members in cliques:
        # pairs of this clique that still need coverage
        needs = [
            (a, b)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if not builder.covered_pair(a, b)
        ]
        if not needs:
            continue

        # only members that still participate in an uncovered pair need to be
        # placed into groups; the rest are already fully covered elsewhere
        needed_members = [m for m in members if any(m in pair for pair in needs)]
        groups = _grow_groups(builder, needed_members)
        group_ids = [builder.add_group(group) for group in groups]

        # cover the cross-group pairs: connect whole groups when safe,
        # otherwise fall back to pair virtual nodes for the leftovers
        for i in range(len(group_ids)):
            for j in range(i + 1, len(group_ids)):
                if builder.can_connect(group_ids[i], group_ids[j]):
                    builder.connect(group_ids[i], group_ids[j])
                else:
                    for a in groups[i]:
                        for b in groups[j]:
                            if a != b and not builder.covered_pair(a, b):
                                builder.add_group([a, b])
    return builder.graph
