"""Preprocessing and deduplication algorithms (Section 5 of the paper).

Four DEDUP-1 algorithms, two BITMAP preprocessing algorithms, the DEDUP-2
greedy algorithm, expansion helpers and a flattening utility for multi-layer
graphs.  :data:`DEDUP1_ALGORITHMS` / :data:`BITMAP_ALGORITHMS` are registries
used by the benchmark harness (Figure 12).
"""

from typing import Callable

from repro.dedup.base import (
    DedupCounters,
    DedupState,
    ORDERINGS,
    apply_ordering,
    flatten_to_single_layer,
    resolve_ordering,
)
from repro.dedup import (
    bitmap1,
    bitmap2,
    dedup2_greedy,
    greedy_real_first,
    greedy_virtual_first,
    naive_real_first,
    naive_virtual_first,
)
from repro.dedup.expand import (
    count_expanded_edges,
    expand,
    expand_virtual_node,
    expansion_ratio,
)
from repro.graph.bitmap import BitmapGraph
from repro.graph.condensed import CondensedGraph
from repro.graph.dedup1 import Dedup1Graph
from repro.graph.dedup2 import Dedup2Graph

#: name -> function(condensed, ordering=..., seed=...) -> Dedup1Graph
DEDUP1_ALGORITHMS: dict[str, Callable[..., Dedup1Graph]] = {
    "naive_virtual_first": naive_virtual_first.deduplicate,
    "naive_real_first": naive_real_first.deduplicate,
    "greedy_real_first": greedy_real_first.deduplicate,
    "greedy_virtual_first": greedy_virtual_first.deduplicate,
}

#: name -> function(condensed) -> BitmapGraph
BITMAP_ALGORITHMS: dict[str, Callable[..., BitmapGraph]] = {
    "bitmap1": bitmap1.preprocess,
    "bitmap2": bitmap2.preprocess,
}


def deduplicate_dedup1(
    condensed: CondensedGraph,
    algorithm: str = "greedy_virtual_first",
    ordering: str = "random",
    seed: int = 0,
) -> Dedup1Graph:
    """Run one of the DEDUP-1 algorithms by name."""
    try:
        fn = DEDUP1_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown DEDUP-1 algorithm {algorithm!r}; "
            f"expected one of {sorted(DEDUP1_ALGORITHMS)}"
        ) from None
    return fn(condensed, ordering=ordering, seed=seed)


def preprocess_bitmap(condensed: CondensedGraph, algorithm: str = "bitmap2") -> BitmapGraph:
    """Run one of the BITMAP preprocessing algorithms by name."""
    try:
        fn = BITMAP_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown BITMAP algorithm {algorithm!r}; "
            f"expected one of {sorted(BITMAP_ALGORITHMS)}"
        ) from None
    return fn(condensed)


def deduplicate_dedup2(condensed: CondensedGraph) -> Dedup2Graph:
    """Build the DEDUP-2 representation (single-layer symmetric graphs only)."""
    return dedup2_greedy.deduplicate(condensed)


__all__ = [
    "DedupCounters",
    "DedupState",
    "ORDERINGS",
    "apply_ordering",
    "resolve_ordering",
    "flatten_to_single_layer",
    "DEDUP1_ALGORITHMS",
    "BITMAP_ALGORITHMS",
    "deduplicate_dedup1",
    "preprocess_bitmap",
    "deduplicate_dedup2",
    "count_expanded_edges",
    "expand",
    "expand_virtual_node",
    "expansion_ratio",
    "bitmap1",
    "bitmap2",
    "dedup2_greedy",
    "greedy_real_first",
    "greedy_virtual_first",
    "naive_real_first",
    "naive_virtual_first",
]
