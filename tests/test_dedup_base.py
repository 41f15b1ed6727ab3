"""Tests for the shared dedup machinery: DedupState, orderings, flattening."""

import pytest

from repro.dedup.base import (
    DedupState,
    ORDERINGS,
    apply_ordering,
    flatten_to_single_layer,
    remove_parallel_direct_edges,
    resolve_ordering,
)
from repro.exceptions import DeduplicationError
from repro.graph import CDupGraph, CondensedGraph, logically_equivalent


@pytest.fixture
def simple_state(figure1_condensed) -> DedupState:
    return DedupState(figure1_condensed.copy())


class TestDedupState:
    def test_cover_counts(self, simple_state, figure1_condensed):
        state = simple_state
        a1 = state.cg.internal(1)
        a4 = state.cg.internal(4)
        a6 = state.cg.internal(6)
        assert state.count(a1, a4) == 2  # papers p1 and p2
        assert state.count(a1, a6) == 0
        assert state.count(a6, state.cg.internal(5)) == 1

    def test_rejects_multilayer(self, multilayer_condensed):
        with pytest.raises(DeduplicationError):
            DedupState(multilayer_condensed)
        # but the check can be bypassed explicitly
        DedupState(multilayer_condensed, require_single_layer=False)

    def test_remove_virtual_out_edge_compensates(self, simple_state):
        state = simple_state
        cg = state.cg
        a2 = cg.internal(2)
        p1 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 1)][0]
        before = cg.neighbor_set(a2)
        compensations = state.remove_virtual_out_edge(p1, cg.internal(3))
        assert compensations >= 1  # a2 relied on p1 to reach a3
        assert cg.neighbor_set(a2) == before

    def test_remove_real_to_virtual_edge_compensates(self, simple_state):
        state = simple_state
        cg = state.cg
        a1 = cg.internal(1)
        p2 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 2)][0]
        before = cg.neighbor_set(a1)
        state.remove_real_to_virtual_edge(a1, p2)
        assert cg.neighbor_set(a1) == before
        # a5 is only reachable via p2, so a direct edge must now exist
        assert cg.has_edge(a1, cg.internal(5))

    def test_remove_missing_edges_raise(self, simple_state):
        state = simple_state
        cg = state.cg
        with pytest.raises(DeduplicationError):
            state.remove_virtual_out_edge(next(iter(cg.virtual_nodes())), cg.internal(6))
        with pytest.raises(DeduplicationError):
            state.remove_direct_edge(cg.internal(1), cg.internal(2))

    def test_duplication_queries(self, simple_state):
        state = simple_state
        cg = state.cg
        p1 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 1)][0]
        p2 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 2)][0]
        p3 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 3)][0]
        assert state.has_duplication_between(p1, p2)
        assert not state.has_duplication_between(p1, p3)
        assert state.out_overlap(p1, p2) == {cg.internal(1), cg.internal(4)}

    def test_masks_follow_the_rewrites(self, simple_state):
        """The masks are the definitions they stand for, before and after a
        rewrite of each kind, and a compensation cost is the primitive's."""
        state = simple_state
        cg = state.cg

        def check() -> None:
            for v in cg.virtual_nodes():
                assert state.in_masks[v] == sum(1 << u for u in state.in_real(v))
                assert state.out_masks[v] == sum(1 << w for w in state.out_real(v))
            for w in cg.real_nodes():
                assert state.single_path[w] == sum(
                    1 << u for u in cg.real_nodes() if state.count(u, w) == 1
                )

        check()
        p1 = [v for v in cg.virtual_nodes() if cg.virtual_labels[v] == ("PubID", 1)][0]
        a1, a4 = cg.internal(1), cg.internal(4)
        cost = state.compensation_cost(p1, a4)
        assert cost == sum(1 for u in state.in_real(p1) if state.count(u, a4) == 1)
        assert state.remove_virtual_out_edge(p1, a4) == cost
        check()
        state.remove_real_to_virtual_edge(a1, p1)
        check()

    def test_normalize_removes_parallel_and_redundant_edges(self, figure1_condensed):
        cg = figure1_condensed.copy()
        a1, a2 = cg.internal(1), cg.internal(2)
        cg.add_edge(a1, a2)  # redundant direct edge (also covered by p1)
        state = DedupState(cg)
        assert state.count(a1, a2) == 2
        state.normalize()
        assert state.count(a1, a2) == 1
        assert not cg.has_edge(a1, a2)

    def test_is_fully_deduplicated(self, simple_state):
        assert not simple_state.is_fully_deduplicated()
        assert simple_state.remaining_duplicates() > 0


class TestOrderings:
    def test_known_orderings(self, simple_state):
        nodes = list(simple_state.cg.real_nodes())
        for name in ORDERINGS:
            ordered = apply_ordering(simple_state, nodes, name, seed=1)
            assert sorted(ordered) == sorted(nodes)

    def test_random_ordering_is_seeded(self, simple_state):
        nodes = list(simple_state.cg.real_nodes())
        first = apply_ordering(simple_state, nodes, "random", seed=5)
        second = apply_ordering(simple_state, nodes, "random", seed=5)
        assert first == second

    def test_unknown_ordering_raises(self):
        with pytest.raises(DeduplicationError):
            resolve_ordering("alphabetical")

    def test_custom_ordering_callable(self, simple_state):
        nodes = list(simple_state.cg.real_nodes())
        ordered = apply_ordering(simple_state, nodes, lambda state, ns: sorted(ns))
        assert ordered == sorted(nodes)


class TestHelpers:
    def test_remove_parallel_direct_edges(self):
        cg = CondensedGraph()
        a = cg.add_real_node("a")
        b = cg.add_real_node("b")
        cg.add_edge(a, b)
        cg.add_edge(a, b)
        assert remove_parallel_direct_edges(cg) == 1
        assert cg.num_condensed_edges == 1

    def test_flatten_to_single_layer_preserves_graph(self, multilayer_condensed):
        flat = flatten_to_single_layer(multilayer_condensed)
        assert flat.is_single_layer()
        assert logically_equivalent(
            CDupGraph(flat), CDupGraph(multilayer_condensed)
        )

    def test_flatten_keeps_direct_edges(self):
        cg = CondensedGraph()
        a = cg.add_real_node("a")
        b = cg.add_real_node("b")
        cg.add_edge(a, b)
        flat = flatten_to_single_layer(cg)
        assert flat.has_edge(flat.internal("a"), flat.internal("b"))
