"""Tests for the four DEDUP-1 algorithms: correctness on fixed and random
single-layer graphs (equivalence + no remaining duplication)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dedup import DEDUP1_ALGORITHMS, deduplicate_dedup1
from repro.dedup.base import DedupState
from repro.graph import CDupGraph, CondensedGraph, expanded_from_condensed, logically_equivalent

from tests.conftest import build_directed_condensed, build_symmetric_condensed

ALGORITHM_NAMES = sorted(DEDUP1_ALGORITHMS)


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
class TestOnFigure1:
    def test_removes_all_duplication(self, figure1_condensed, algorithm):
        result = DEDUP1_ALGORITHMS[algorithm](figure1_condensed)
        assert not result.condensed.has_duplication()
        assert DedupState(result.condensed).is_fully_deduplicated()

    def test_preserves_logical_graph(self, figure1_condensed, algorithm):
        expanded = expanded_from_condensed(figure1_condensed)
        result = DEDUP1_ALGORITHMS[algorithm](figure1_condensed)
        assert logically_equivalent(result, expanded)

    def test_input_not_mutated_by_default(self, figure1_condensed, algorithm):
        edges_before = figure1_condensed.num_condensed_edges
        DEDUP1_ALGORITHMS[algorithm](figure1_condensed)
        assert figure1_condensed.num_condensed_edges == edges_before
        assert figure1_condensed.has_duplication()


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("builder", [build_symmetric_condensed, build_directed_condensed])
def test_random_graphs(algorithm, seed, builder):
    condensed = builder(seed, num_real=35, num_virtual=14, max_size=7)
    expanded = expanded_from_condensed(condensed)
    result = DEDUP1_ALGORITHMS[algorithm](condensed, ordering="random", seed=seed)
    assert not result.condensed.has_duplication()
    assert logically_equivalent(result, expanded)


@pytest.mark.parametrize("ordering", ["random", "degree_desc", "degree_asc"])
def test_orderings_all_correct(figure1_condensed, ordering):
    for algorithm in ALGORITHM_NAMES:
        result = DEDUP1_ALGORITHMS[algorithm](figure1_condensed, ordering=ordering, seed=3)
        assert not result.condensed.has_duplication()


class TestRegistry:
    def test_deduplicate_dedup1_dispatch(self, figure1_condensed):
        result = deduplicate_dedup1(figure1_condensed, algorithm="naive_real_first")
        assert not result.condensed.has_duplication()

    def test_unknown_algorithm_raises(self, figure1_condensed):
        with pytest.raises(ValueError):
            deduplicate_dedup1(figure1_condensed, algorithm="quantum")

    def test_greedy_not_worse_than_naive_on_dense_overlap(self):
        """The greedy algorithms should not produce more condensed edges than
        the naive ones on a heavily-overlapping clique graph (Figure 6/8/9
        motivation)."""
        condensed = build_symmetric_condensed(seed=42, num_real=25, num_virtual=10, max_size=12)
        naive = DEDUP1_ALGORITHMS["naive_virtual_first"](condensed, ordering="degree_desc")
        greedy = DEDUP1_ALGORITHMS["greedy_virtual_first"](condensed, ordering="degree_desc")
        assert (
            greedy.condensed.num_condensed_edges
            <= naive.condensed.num_condensed_edges * 1.25
        )


# --------------------------------------------------------------------------- #
# property-based: random membership structures stay equivalent & clean
# --------------------------------------------------------------------------- #
@st.composite
def membership_structure(draw):
    num_real = draw(st.integers(4, 20))
    num_virtual = draw(st.integers(1, 8))
    memberships = []
    for _ in range(num_virtual):
        in_side = draw(st.lists(st.integers(0, num_real - 1), min_size=1, max_size=6, unique=True))
        out_side = draw(st.lists(st.integers(0, num_real - 1), min_size=1, max_size=6, unique=True))
        memberships.append((in_side, out_side))
    return num_real, memberships


def _build(num_real, memberships) -> CondensedGraph:
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    for index, (in_side, out_side) in enumerate(memberships):
        virtual = graph.add_virtual_node(("m", index))
        for node in in_side:
            graph.add_edge(graph.internal(node), virtual)
        for node in out_side:
            graph.add_edge(virtual, graph.internal(node))
    return graph


@settings(max_examples=40, deadline=None)
@given(membership_structure(), st.sampled_from(ALGORITHM_NAMES))
def test_property_dedup1_equivalence(structure, algorithm):
    num_real, memberships = structure
    condensed = _build(num_real, memberships)
    reference = expanded_from_condensed(condensed)
    result = DEDUP1_ALGORITHMS[algorithm](condensed, ordering="random", seed=1)
    assert not result.condensed.has_duplication()
    assert logically_equivalent(result, reference)
    # C-DUP over the deduplicated structure agrees too (the hash set becomes a no-op)
    assert logically_equivalent(CDupGraph(result.condensed), reference)
