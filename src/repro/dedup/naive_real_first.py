"""Naive Real Nodes First deduplication (Section 5.2.1).

Each real node is considered in turn and all duplication among the virtual
nodes in *its* neighborhood is resolved (using the same lower-in-degree
edge-removal rule as the Naive Virtual Nodes First algorithm) before moving to
the next real node.  The per-node processed set is cleared between real nodes.

Complexity: O(n_r * d^4) in the worst case (paper's bound); the virtual
nodes of one real node all share it as an in-node, so every pair is a real
candidate and each probe is one mask AND on the maintained masks.
"""

from __future__ import annotations

from repro.dedup.base import DedupCounters, DedupState, OrderingFn, apply_ordering
from repro.dedup.naive_virtual_first import _resolve_pair
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup1 import Dedup1Graph


def deduplicate(
    condensed: CondensedGraph,
    ordering: str | OrderingFn = "random",
    seed: int = 0,
) -> Dedup1Graph:
    """Run the Naive Real Nodes First algorithm and return a DEDUP-1 graph."""
    working = condensed.copy()
    state = DedupState(working)
    state.normalize()

    real_nodes = apply_ordering(state, working.real_nodes(), ordering, seed=seed)
    probes = 0
    for real in real_nodes:
        processed: list[int] = []
        for virtual in [v for v in working.out(real) if working.is_virtual(v)]:
            for other in processed:
                probes += _resolve_pair(state, virtual, other)
            processed.append(virtual)
    DedupCounters.pair_tests += probes

    return Dedup1Graph(working, trusted=True)
