"""Analysis helpers over graphs and representations.

These functions power the compression-comparison experiments (Figure 10,
Table 5): per-representation node/edge counts, logical-equivalence checks
between representations, and memory estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dedup.expand import expand
from repro.graph.api import Graph, logical_edge_set
from repro.graph.bitmap import BitmapGraph
from repro.graph.condensed import CondensedGraph
from repro.graph.condensed_base import CondensedBackedGraph
from repro.graph.dedup2 import Dedup2Graph
from repro.graph.expanded import ExpandedGraph
from repro.utils.memory import estimate_adjacency_bytes, estimate_bitmap_bytes


@dataclass(frozen=True)
class RepresentationStats:
    """Size statistics of one in-memory representation (Figure 10 columns)."""

    representation: str
    real_nodes: int
    virtual_nodes: int
    total_nodes: int
    edges: int
    bitmaps: int
    estimated_bytes: int

    def as_row(self) -> dict[str, int | str]:
        return {
            "representation": self.representation,
            "real_nodes": self.real_nodes,
            "virtual_nodes": self.virtual_nodes,
            "total_nodes": self.total_nodes,
            "edges": self.edges,
            "bitmaps": self.bitmaps,
            "estimated_bytes": self.estimated_bytes,
        }


def representation_stats(graph: Graph) -> RepresentationStats:
    """Node/edge/bitmap counts plus an analytic memory estimate for ``graph``.

    "edges" means *physical* edges stored by the representation: adjacency
    entries for EXP, condensed edges for C-DUP/DEDUP-1/BITMAP, membership +
    virtual-virtual edges for DEDUP-2.  That is what Figure 10 plots.
    """
    if isinstance(graph, ExpandedGraph):
        real = graph.num_vertices()
        edges = graph.num_edges()
        return RepresentationStats(
            representation=graph.representation_name,
            real_nodes=real,
            virtual_nodes=0,
            total_nodes=real,
            edges=edges,
            bitmaps=0,
            estimated_bytes=estimate_adjacency_bytes(real, edges),
        )
    if isinstance(graph, Dedup2Graph):
        real = graph.num_vertices()
        virtual = graph.num_virtual_nodes
        edges = graph.num_structure_edges()
        return RepresentationStats(
            representation=graph.representation_name,
            real_nodes=real,
            virtual_nodes=virtual,
            total_nodes=real + virtual,
            edges=edges,
            bitmaps=0,
            estimated_bytes=estimate_adjacency_bytes(real + virtual, edges),
        )
    if isinstance(graph, CondensedBackedGraph):
        condensed = graph.condensed
        real = condensed.num_real_nodes
        virtual = condensed.num_virtual_nodes
        edges = condensed.num_condensed_edges
        bitmaps = 0
        extra_bytes = 0
        if isinstance(graph, BitmapGraph):
            bitmaps = graph.bitmap_count()
            extra_bytes = estimate_bitmap_bytes(graph.bitmap_sizes())
        return RepresentationStats(
            representation=graph.representation_name,
            real_nodes=real,
            virtual_nodes=virtual,
            total_nodes=real + virtual,
            edges=edges,
            bitmaps=bitmaps,
            estimated_bytes=estimate_adjacency_bytes(real + virtual, edges) + extra_bytes,
        )
    # generic fallback
    real = graph.num_vertices()
    edges = graph.num_edges()
    return RepresentationStats(
        representation=graph.representation_name,
        real_nodes=real,
        virtual_nodes=0,
        total_nodes=real,
        edges=edges,
        bitmaps=0,
        estimated_bytes=estimate_adjacency_bytes(real, edges),
    )


def logically_equivalent(
    first: Graph, second: Graph, ignore_self_loops: bool = False
) -> bool:
    """True if the two representations expose exactly the same logical graph
    (same vertex set, same de-duplicated edge set).

    ``ignore_self_loops`` compares the edge sets modulo ``v -> v`` edges; use
    it when one side is a DEDUP-2 representation, which by design cannot
    represent self-loops (see :mod:`repro.graph.dedup2`).
    """
    if set(first.get_vertices()) != set(second.get_vertices()):
        return False
    first_edges = logical_edge_set(first)
    second_edges = logical_edge_set(second)
    if ignore_self_loops:
        first_edges = {(u, v) for (u, v) in first_edges if u != v}
        second_edges = {(u, v) for (u, v) in second_edges if u != v}
    return first_edges == second_edges


def expanded_from_condensed(condensed: CondensedGraph) -> ExpandedGraph:
    """Materialise the expanded graph described by a condensed graph, node
    properties and edge annotations included (:func:`repro.dedup.expand.expand`)."""
    return expand(condensed)


def condensed_from_expanded(graph: ExpandedGraph) -> CondensedGraph:
    """Trivial condensed graph with no virtual nodes (all direct edges).

    Useful for feeding expanded graphs into APIs that expect a condensed
    structure (e.g. the VMiner comparison).
    """
    condensed = CondensedGraph()
    for vertex in graph.get_vertices():
        condensed.add_real_node(vertex)
    for source in graph.get_vertices():
        for target in graph.get_neighbors(source):
            condensed.add_edge(condensed.internal(source), condensed.internal(target))
    return condensed


def duplication_profile(condensed: CondensedGraph) -> dict[str, float]:
    """Summary statistics of the duplication present in a condensed graph."""
    duplicates = 0
    logical = 0
    worst = 0
    for node in condensed.real_nodes():
        count = condensed.duplication_count(node)
        duplicates += count
        worst = max(worst, count)
        logical += len(condensed.neighbor_set(node))
    return {
        "duplicate_paths": float(duplicates),
        "logical_edges": float(logical),
        "duplication_ratio": duplicates / logical if logical else 0.0,
        "worst_vertex_duplicates": float(worst),
    }


def degree_histogram(graph: Graph, bins: int = 10) -> dict[str, list[float]]:
    """Simple degree histogram used by the examples for exploratory output."""
    degrees = sorted(graph.degree(v) for v in graph.get_vertices())
    if not degrees:
        return {"bin_edges": [], "counts": []}
    low, high = degrees[0], degrees[-1]
    width = max(1.0, (high - low) / bins)
    edges = [low + i * width for i in range(bins + 1)]
    counts = [0.0] * bins
    for degree in degrees:
        index = min(bins - 1, int((degree - low) / width))
        counts[index] += 1
    return {"bin_edges": edges, "counts": counts}
