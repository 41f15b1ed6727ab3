"""Naive Virtual Nodes First deduplication (Section 5.2.1).

Virtual nodes are (re)admitted into the partial graph one at a time; before a
virtual node ``V`` is accepted, any duplication between ``V`` and an already
processed virtual node ``Ri`` is resolved by removing the overlapping
out-edges from whichever of the two virtual nodes has the *smaller in-degree*
(fewer compensating direct edges are then needed) and adding the compensating
direct edges.

Complexity: the paper bounds it by O(n_v * d^4).  Only out-edges are ever
removed, so the ``Ri`` that can overlap ``V`` are the processed nodes sharing
a real in-node with it; they come from an index (real in-node -> processed
nodes) instead of a scan over all n_v, and each probe is one mask AND.
"""

from __future__ import annotations

from repro.dedup.base import (
    DedupCounters,
    DedupState,
    OrderingFn,
    admit_with_candidates,
    apply_ordering,
    single_layer_virtual_nodes,
)
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup1 import Dedup1Graph


def _resolve_pair(state: DedupState, new: int, processed: int) -> int:
    """Remove all duplication between two virtual nodes by dropping the shared
    out-edges from the lower-in-degree node.  Returns the number of
    duplication probes made (one per removal, plus the final one)."""
    in_new, in_processed = state.in_masks[new], state.in_masks[processed]
    if not in_new & in_processed:
        return 1
    # no in-edge is removed here, so the victim is the same for every target
    victim = new if in_new.bit_count() <= in_processed.bit_count() else processed
    out_masks = state.out_masks
    probes = 1
    while overlap := out_masks[new] & out_masks[processed]:
        target = (overlap & -overlap).bit_length() - 1  # lowest: deterministic
        state.remove_virtual_out_edge(victim, target)
        probes += 1
    return probes


def deduplicate(
    condensed: CondensedGraph,
    ordering: str | OrderingFn = "random",
    seed: int = 0,
) -> Dedup1Graph:
    """Run the Naive Virtual Nodes First algorithm and return a DEDUP-1 graph."""
    working = condensed.copy()
    state = DedupState(working)
    state.normalize()

    virtuals = apply_ordering(state, single_layer_virtual_nodes(working), ordering, seed=seed)
    probes = 0
    for virtual, candidates in admit_with_candidates(working, virtuals):
        for other in candidates:
            probes += _resolve_pair(state, virtual, other)
    DedupCounters.pair_tests += probes

    return Dedup1Graph(working, trusted=True)
