"""Greedy Virtual Nodes First deduplication (Section 5.2.1, Figure 9).

Like the naive Virtual Nodes First algorithm, virtual nodes are admitted into
the partial graph one at a time; but when the incoming node ``V`` overlaps
already-processed virtual nodes, the edge to remove is chosen greedily by a
benefit/cost ratio inspired by the greedy vertex-cover approximation:

* *benefit* of removing ``V -> w`` — the number of processed virtual nodes
  whose overlap with ``V`` contains ``w`` (one removal can resolve several
  overlaps at once); removing ``Vi -> w`` always has benefit 1;
* *cost* — the number of compensating direct edges the removal forces.

Complexity: the paper's bound is O(n_v * d * (n_v * d^2 + d)), the inner n_v
being a scan over every processed virtual node.  No edge into a virtual node
is ever removed here, so only the processed nodes sharing a real in-node with
``V`` can overlap it, and an index (real in-node -> processed nodes) yields
them: the inner n_v becomes the c <= d * d_r candidates reached through
``V``'s d in-nodes (d_r: virtual nodes per real node), and each probe or
cost is one mask AND (and popcount) on the state's maintained masks.
"""

from __future__ import annotations

from repro.dedup.base import (
    DedupCounters,
    DedupState,
    OrderingFn,
    admit_with_candidates,
    apply_ordering,
    bits,
    single_layer_virtual_nodes,
)
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup1 import Dedup1Graph


def _best_removal(
    state: DedupState, virtual: int, duplicated: list[int]
) -> tuple[int, int]:
    """Pick the single edge removal with the best benefit/cost ratio.

    Returns ``(owner, target)`` where ``owner`` is either ``virtual`` or one of
    the processed virtual nodes in ``duplicated``.  The first candidate with
    the highest ratio wins, ``V -> w`` before ``Vi -> w``.
    """
    in_masks, out_masks, single_path = state.in_masks, state.out_masks, state.single_path
    in_virtual = in_masks[virtual]
    out_virtual = out_masks[virtual]
    out_others = [out_masks[other] for other in duplicated]
    ratio_new: dict[int, float] = {}  # target -> ratio of removing virtual -> target
    best_ratio, best = -1.0, (virtual, -1)
    evaluations = 0
    for other, out_other in zip(duplicated, out_others):
        in_other = in_masks[other]
        # the first best ratio wins, so the overlap set's iteration order is
        # part of the algorithm's output
        for target in bits(out_virtual & out_other):
            single = single_path[target]
            ratio = ratio_new.get(target)
            if ratio is None:
                bit = 1 << target
                benefit = sum(1 for mask in out_others if mask & bit)
                ratio = ratio_new[target] = benefit / ((in_virtual & single).bit_count() + 1)
                evaluations += 1
            if ratio > best_ratio:
                best_ratio, best = ratio, (virtual, target)
            ratio = 1.0 / ((in_other & single).bit_count() + 1)
            evaluations += 1
            if ratio > best_ratio:
                best_ratio, best = ratio, (other, target)
    DedupCounters.cost_evaluations += evaluations
    assert best[1] >= 0, "caller guarantees at least one duplicated pair"
    return best


def deduplicate(
    condensed: CondensedGraph,
    ordering: str | OrderingFn = "random",
    seed: int = 0,
) -> Dedup1Graph:
    """Run the Greedy Virtual Nodes First algorithm and return a DEDUP-1 graph."""
    working = condensed.copy()
    state = DedupState(working)
    state.normalize()
    out_masks = state.out_masks

    virtuals = apply_ordering(state, single_layer_virtual_nodes(working), ordering, seed=seed)
    probes = 0
    for virtual, candidates in admit_with_candidates(working, virtuals):
        # a candidate shares an in-node with virtual and keeps sharing it
        # (only out-edges are removed), so a probe is one out-mask AND
        out_virtual = out_masks[virtual]
        duplicated = [other for other in candidates if out_virtual & out_masks[other]]
        probes += len(candidates)
        while duplicated:
            owner, target = _best_removal(state, virtual, duplicated)
            state.remove_virtual_out_edge(owner, target)
            # removals only ever shrink overlaps: filter, never rescan
            out_virtual = out_masks[virtual]
            probes += len(duplicated)
            duplicated = [other for other in duplicated if out_virtual & out_masks[other]]
    DedupCounters.pair_tests += probes

    return Dedup1Graph(working, trusted=True)
