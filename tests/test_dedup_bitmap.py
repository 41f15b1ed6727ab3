"""Tests for the BITMAP-1 / BITMAP-2 preprocessing algorithms and the
BITMAP representation's mutators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dedup import BITMAP_ALGORITHMS, preprocess_bitmap
from repro.dedup.bitmap1 import preprocess as bitmap1
from repro.dedup.bitmap2 import preprocess as bitmap2
from repro.graph import (
    BitmapGraph,
    CondensedGraph,
    condensed_from_edges,
    expanded_from_condensed,
    logically_equivalent,
)

from tests.conftest import (
    build_directed_condensed,
    build_multilayer_condensed,
    build_symmetric_condensed,
)

ALGORITHMS = sorted(BITMAP_ALGORITHMS)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestCorrectness:
    def test_figure1(self, figure1_condensed, algorithm):
        bitmap = BITMAP_ALGORITHMS[algorithm](figure1_condensed)
        expanded = expanded_from_condensed(figure1_condensed)
        assert logically_equivalent(bitmap, expanded)
        for vertex in bitmap.get_vertices():
            neighbors = list(bitmap.get_neighbors(vertex))
            assert len(neighbors) == len(set(neighbors))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_single_layer(self, algorithm, seed):
        condensed = build_directed_condensed(seed, num_real=30, num_virtual=12)
        expanded = expanded_from_condensed(condensed)
        bitmap = BITMAP_ALGORITHMS[algorithm](condensed)
        assert logically_equivalent(bitmap, expanded)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_multi_layer(self, algorithm, seed):
        condensed = build_multilayer_condensed(seed)
        expanded = expanded_from_condensed(condensed)
        bitmap = BITMAP_ALGORITHMS[algorithm](condensed)
        assert logically_equivalent(bitmap, expanded)

    def test_input_not_mutated(self, figure1_condensed, algorithm):
        edges = figure1_condensed.num_condensed_edges
        BITMAP_ALGORITHMS[algorithm](figure1_condensed)
        assert figure1_condensed.num_condensed_edges == edges


class TestBitmap1Specifics:
    def test_edge_count_unchanged(self, symmetric_condensed):
        bitmap = bitmap1(symmetric_condensed)
        assert bitmap.condensed.num_condensed_edges == symmetric_condensed.num_condensed_edges

    def test_every_reachable_penultimate_virtual_gets_a_bitmap(self, figure1_condensed):
        bitmap = bitmap1(figure1_condensed)
        condensed = bitmap.condensed
        for node in condensed.real_nodes():
            for virtual in condensed.virtual_nodes_reachable(node):
                if any(condensed.is_real(t) for t in condensed.out(virtual)):
                    assert bitmap.has_bitmap(virtual, node)


class TestBitmap2Specifics:
    def test_fewer_bitmaps_than_bitmap1(self, symmetric_condensed):
        one = bitmap1(symmetric_condensed)
        two = bitmap2(symmetric_condensed)
        assert two.bitmap_count() <= one.bitmap_count()

    def test_useless_edges_are_deleted(self):
        # two virtual nodes with identical member sets: after covering through
        # one of them, the edge to the other is useless for every source
        condensed = CondensedGraph()
        for node in range(4):
            condensed.add_real_node(node)
        for _ in range(2):
            virtual = condensed.add_virtual_node()
            for node in range(4):
                condensed.add_edge(condensed.internal(node), virtual)
                condensed.add_edge(virtual, condensed.internal(node))
        bitmap = bitmap2(condensed)
        assert bitmap.condensed.num_condensed_edges < condensed.num_condensed_edges
        assert logically_equivalent(bitmap, expanded_from_condensed(condensed))

    def test_registry_dispatch_and_errors(self, figure1_condensed):
        assert preprocess_bitmap(figure1_condensed, algorithm="bitmap1").bitmap_count() > 0
        with pytest.raises(ValueError):
            preprocess_bitmap(figure1_condensed, algorithm="bitmap3")


class TestMutatorsKeepBitmapsHonest:
    """Mutations on a BITMAP graph whose bitmaps mask a duplicate path."""

    @staticmethod
    def _masked(*memberships):
        condensed = condensed_from_edges(range(4), memberships)
        return BitmapGraph(condensed), condensed

    def test_delete_edge_keeps_a_target_masked_elsewhere(self):
        # 0 reaches itself through V1 and V2; V2's bitmap for 0 follows only
        # its second out-edge (to 2), so V1 carries the self-pair alone
        graph, condensed = self._masked(("V1", [0], [0, 1]), ("V2", [0], [0, 2]))
        v2 = condensed.out(0)[1]
        graph.set_bitmap(v2, 0, 0b10)
        assert sorted(graph.get_neighbors(0)) == [0, 1, 2]
        graph.delete_edge(0, 1)
        assert sorted(graph.get_neighbors(0)) == [0, 2]

    def test_delete_vertex_compacts_the_bits_of_the_removed_edges(self):
        # V's bitmap for 0 follows 1 and 2 and masks 3, which W also reaches
        graph, condensed = self._masked(("V", [0], [1, 2, 3]), ("W", [0], [3]))
        v = condensed.out(0)[0]
        graph.set_bitmap(v, 0, 0b011)
        graph.delete_vertex(1)
        assert condensed.out(v) == [condensed.internal(2), condensed.internal(3)]
        assert graph.get_bitmap(v, 0) == 0b01
        assert list(graph.get_neighbors(0)) == [3, 2]
        graph.delete_vertex(0)
        assert graph.bitmap_count() == 0


# --------------------------------------------------------------------------- #
# property-based: arbitrary membership structures remain duplicate-free
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(ALGORITHMS),
    st.sampled_from([build_symmetric_condensed, build_directed_condensed]),
)
def test_property_bitmap_no_duplicates(seed, algorithm, builder):
    condensed = builder(seed % 50, num_real=20, num_virtual=8, max_size=6)
    bitmap = BITMAP_ALGORITHMS[algorithm](condensed)
    expanded = expanded_from_condensed(condensed)
    assert logically_equivalent(bitmap, expanded)
    for vertex in bitmap.get_vertices():
        neighbors = list(bitmap.get_neighbors(vertex))
        assert len(neighbors) == len(set(neighbors))
