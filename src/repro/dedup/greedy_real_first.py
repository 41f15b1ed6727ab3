"""Greedy Real Nodes First deduplication (Section 5.2.1, Figure 8).

Each real node ``u`` is deduplicated individually: a greedy, set-cover-style
selection decides which of ``u``'s virtual nodes to stay connected to
(``V'``).  Keeping a virtual node saves the direct edges to the neighbors it
newly covers, but costs the removal of its out-edges to already-covered
neighbors (with compensating direct edges for the *other* in-nodes that relied
on them).  Virtual nodes whose benefit is not positive are dropped and ``u``
is connected to the uncovered neighbors through direct edges instead.

Complexity: roughly O(n_r * d^5) in the worst case (paper's bound); with the
maintained masks a benefit costs one popcount per conflicting target instead
of a walk over the virtual node's in-list, so O(n_r * d^4) mask operations.
"""

from __future__ import annotations

from repro.dedup.base import (
    DedupCounters,
    DedupState,
    OrderingFn,
    apply_ordering,
    bits,
    real_mask,
)
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup1 import Dedup1Graph


def _benefit(state: DedupState, source: int, virtual: int, covered: int) -> int:
    """Edge-count reduction from keeping ``virtual`` for ``source`` given the
    targets already ``covered`` (a mask) by previously kept mechanisms."""
    out = state.out_masks[virtual]
    conflicts = out & covered
    # keeping the virtual node saves one direct edge per newly covered target
    # but keeps the source->virtual edge itself (-1) and pays for removing the
    # conflicting out-edges: each removal deletes one edge (+1) but adds one
    # compensating direct edge per other in-node that loses its last path.
    saving = (out ^ conflicts).bit_count() - 1
    if not conflicts:
        return saving
    others = state.in_masks[virtual] & ~(1 << source)
    single_path = state.single_path
    targets = bits(conflicts)
    DedupCounters.cost_evaluations += len(targets)
    return saving - sum((others & single_path[target]).bit_count() - 1 for target in targets)


def _deduplicate_vertex(state: DedupState, source: int) -> None:
    working = state.cg
    virtuals = [v for v in working.out(source) if working.is_virtual(v)]
    if not virtuals:
        return
    covered = real_mask(working.out(source))
    kept: list[int] = []
    candidates = set(virtuals)

    while candidates:
        best_virtual = None
        best_benefit = 0
        for virtual in sorted(candidates, reverse=True):
            benefit = _benefit(state, source, virtual, covered)
            if benefit > best_benefit:
                best_virtual = virtual
                best_benefit = benefit
        if best_virtual is None:
            break
        covered |= state.out_masks[best_virtual]
        kept.append(best_virtual)
        candidates.remove(best_virtual)

    # drop the remaining virtual nodes: the primitive adds the direct edges
    # for any neighbor that would otherwise be lost
    for virtual in sorted(candidates, reverse=True):
        state.remove_real_to_virtual_edge(source, virtual)

    # resolve the remaining duplication among the kept mechanisms: for every
    # target still covered more than once, drop the redundant direct edge
    # first (cheapest) and only then the virtual out-edge
    for virtual in kept:
        for target in list(state.out_real(virtual)):
            if state.count(source, target) > 1 and state.cg.has_edge(source, target):
                state.remove_direct_edge(source, target)
            if state.count(source, target) > 1:
                state.remove_virtual_out_edge(virtual, target)


def deduplicate(
    condensed: CondensedGraph,
    ordering: str | OrderingFn = "random",
    seed: int = 0,
) -> Dedup1Graph:
    """Run the Greedy Real Nodes First algorithm and return a DEDUP-1 graph."""
    working = condensed.copy()
    state = DedupState(working)
    state.normalize()

    for real in apply_ordering(state, working.real_nodes(), ordering, seed=seed):
        _deduplicate_vertex(state, real)

    return Dedup1Graph(working, trusted=True)
