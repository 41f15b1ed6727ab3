"""Tests for repro.graph.analysis (stats, conversions, profiles)."""

import pytest

from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.graph import (
    CDupGraph,
    condensed_from_expanded,
    degree_histogram,
    duplication_profile,
    expanded_from_condensed,
    logically_equivalent,
    representation_stats,
)


class TestRepresentationStats:
    def test_expanded_stats(self, figure1_condensed):
        expanded = expanded_from_condensed(figure1_condensed)
        stats = representation_stats(expanded)
        assert stats.representation == "EXP"
        assert stats.real_nodes == 6
        assert stats.virtual_nodes == 0
        assert stats.edges == expanded.num_edges()
        assert stats.estimated_bytes > 0

    def test_cdup_stats(self, figure1_condensed):
        stats = representation_stats(CDupGraph(figure1_condensed))
        assert stats.representation == "C-DUP"
        assert stats.virtual_nodes == 3
        assert stats.edges == 18
        assert stats.bitmaps == 0

    def test_bitmap_stats_include_bitmaps(self, figure1_condensed):
        bitmap = preprocess_bitmap(figure1_condensed, algorithm="bitmap1")
        stats = representation_stats(bitmap)
        assert stats.representation == "BITMAP"
        assert stats.bitmaps > 0
        plain = representation_stats(CDupGraph(bitmap.condensed))
        assert stats.estimated_bytes > plain.estimated_bytes

    def test_dedup2_stats(self, symmetric_condensed):
        dedup2 = deduplicate_dedup2(symmetric_condensed)
        stats = representation_stats(dedup2)
        assert stats.representation == "DEDUP-2"
        assert stats.edges == dedup2.num_structure_edges()

    def test_as_row_keys(self, figure1_condensed):
        row = representation_stats(CDupGraph(figure1_condensed)).as_row()
        assert {"representation", "real_nodes", "virtual_nodes", "edges"} <= set(row)


class TestConversions:
    def test_condensed_from_expanded_roundtrip(self, directed_condensed):
        expanded = expanded_from_condensed(directed_condensed)
        back = condensed_from_expanded(expanded)
        assert back.num_virtual_nodes == 0
        assert logically_equivalent(CDupGraph(back), expanded)

    def test_expansion_preserves_properties(self):
        from repro.graph import CondensedGraph

        condensed = CondensedGraph()
        condensed.add_real_node("a", name="Alice")
        condensed.add_real_node("b")
        condensed.add_edge(condensed.internal("a"), condensed.internal("b"))
        expanded = expanded_from_condensed(condensed)
        assert expanded.get_property("a", "name") == "Alice"

    def test_expansion_keeps_aggregate_edge_weights(self, toy_dblp):
        """An aggregate rule's weights live on the condensed graph's direct
        edges; expanding must carry them like ``dedup.expand`` does."""
        from repro.core import GraphGen
        from repro.dedup.expand import expand

        condensed, _ = GraphGen(toy_dblp).extract_condensed(
            "Nodes(ID, Name) :- Author(ID, Name).\n"
            "Edges(ID1, ID2, count(P)) :- AuthorPub(ID1, P), AuthorPub(ID2, P)."
        )
        expanded = expanded_from_condensed(condensed)
        assert expanded.edge_properties(1, 4) == {"count_P": 2}  # p1 and p2
        assert expanded.edge_properties(5, 6) == {"count_P": 1}
        reference = expand(condensed)
        for source in reference.get_vertices():
            for target in reference.get_neighbors(source):
                assert expanded.edge_properties(source, target) == reference.edge_properties(
                    source, target
                )


class TestProfiles:
    def test_duplication_profile(self, figure1_condensed):
        profile = duplication_profile(figure1_condensed)
        assert profile["duplicate_paths"] >= 1
        assert 0 < profile["duplication_ratio"] < 1
        assert profile["worst_vertex_duplicates"] >= 1

    def test_duplication_profile_clean_graph(self, figure1_condensed):
        dedup = deduplicate_dedup1(figure1_condensed)
        profile = duplication_profile(dedup.condensed)
        assert profile["duplicate_paths"] == 0

    def test_degree_histogram(self, figure1_condensed):
        histogram = degree_histogram(CDupGraph(figure1_condensed), bins=4)
        assert len(histogram["counts"]) == 4
        assert sum(histogram["counts"]) == 6

    def test_degree_histogram_empty_graph(self):
        from repro.graph import ExpandedGraph

        assert degree_histogram(ExpandedGraph()) == {"bin_edges": [], "counts": []}
