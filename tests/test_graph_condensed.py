"""Tests for the CondensedGraph data structure."""

import pytest

from repro.exceptions import RepresentationError
from repro.graph.condensed import CondensedCounters, CondensedGraph, condensed_from_edges


class TestNodeManagement:
    def test_add_real_node_assigns_dense_ids(self):
        graph = CondensedGraph()
        a = graph.add_real_node("alice")
        b = graph.add_real_node("bob")
        assert (a, b) == (0, 1)
        assert graph.external(a) == "alice"
        assert graph.internal("bob") == b

    def test_re_adding_real_node_merges_properties(self):
        graph = CondensedGraph()
        node = graph.add_real_node(1, name="x")
        again = graph.add_real_node(1, age=3)
        assert node == again
        assert graph.node_properties[node] == {"name": "x", "age": 3}

    def test_virtual_nodes_are_negative(self):
        graph = CondensedGraph()
        v1 = graph.add_virtual_node(("pub", 1))
        v2 = graph.add_virtual_node()
        assert v1 < 0 and v2 < v1
        assert CondensedGraph.is_virtual(v1)
        assert not CondensedGraph.is_virtual(0)

    def test_unknown_lookups_raise(self):
        graph = CondensedGraph()
        with pytest.raises(RepresentationError):
            graph.internal("ghost")
        with pytest.raises(RepresentationError):
            graph.external(12)

    def test_remove_real_node_cleans_edges(self, figure1_condensed):
        graph = figure1_condensed
        node = graph.internal(1)
        graph.remove_real_node(node)
        assert not graph.has_external(1)
        for virtual in graph.virtual_nodes():
            assert node not in graph.out(virtual)
            assert node not in graph.inn(virtual)

    def test_remove_virtual_node_cleans_edges(self, figure1_condensed):
        graph = figure1_condensed
        virtual = next(iter(graph.virtual_nodes()))
        members = graph.virtual_in_real(virtual)
        graph.remove_virtual_node(virtual)
        for member in members:
            assert virtual not in graph.out(member)

    def test_remove_wrong_kind_raises(self, figure1_condensed):
        with pytest.raises(RepresentationError):
            figure1_condensed.remove_virtual_node(0)
        with pytest.raises(RepresentationError):
            figure1_condensed.remove_real_node(-1)


class TestEdges:
    def test_add_and_remove_edge(self):
        graph = CondensedGraph()
        a = graph.add_real_node("a")
        b = graph.add_real_node("b")
        graph.add_edge(a, b)
        assert graph.has_edge(a, b)
        graph.remove_edge(a, b)
        assert not graph.has_edge(a, b)

    def test_add_edge_unknown_endpoint_raises(self):
        graph = CondensedGraph()
        a = graph.add_real_node("a")
        with pytest.raises(RepresentationError):
            graph.add_edge(a, 42)

    def test_remove_missing_edge_raises(self):
        graph = CondensedGraph()
        a = graph.add_real_node("a")
        b = graph.add_real_node("b")
        with pytest.raises(RepresentationError):
            graph.remove_edge(a, b)


class TestStructure:
    def test_figure1_counts(self, figure1_condensed):
        graph = figure1_condensed
        assert graph.num_real_nodes == 6
        assert graph.num_virtual_nodes == 3
        # 9 author-pub pairs, stored in both directions
        assert graph.num_condensed_edges == 18
        assert graph.is_single_layer()
        assert graph.num_layers() == 1
        assert graph.is_acyclic()

    def test_figure1_duplication(self, figure1_condensed):
        graph = figure1_condensed
        # a1 and a4 share papers p1 and p2 -> duplicate path
        assert graph.has_duplication()
        a1 = graph.internal(1)
        assert graph.duplication_count(a1) >= 1
        assert graph.neighbor_set(a1) == {graph.internal(i) for i in (1, 2, 3, 4, 5)}

    def test_figure1_expanded_edge_count(self, figure1_condensed):
        # cliques of size 4, 3, 2 with overlaps {a1,a4} and {a5}
        # expanded directed edges (including self loops) = |union of pairs|
        expected = len(set(figure1_condensed.expanded_edges()))
        assert figure1_condensed.expanded_edge_count() == expected

    def test_symmetry_check(self, figure1_condensed, directed_condensed):
        assert figure1_condensed.is_symmetric()

    def test_multilayer_detection(self, multilayer_condensed):
        assert not multilayer_condensed.is_single_layer()
        assert multilayer_condensed.num_layers() >= 2
        assert multilayer_condensed.is_acyclic()

    def test_copy_is_deep_for_adjacency(self, figure1_condensed):
        clone = figure1_condensed.copy()
        a1 = clone.internal(1)
        virtual = next(iter(clone.virtual_nodes()))
        clone.add_edge(a1, virtual)
        assert figure1_condensed.num_condensed_edges == 18
        assert clone.num_condensed_edges == 19

    def test_virtual_nodes_reachable(self, multilayer_condensed):
        graph = multilayer_condensed
        for node in graph.real_nodes():
            reachable = set(graph.virtual_nodes_reachable(node))
            direct = {v for v in graph.out(node) if graph.is_virtual(v)}
            assert direct <= reachable


class TestCondensedFromEdges:
    def test_builder(self):
        graph = condensed_from_edges(
            ["a", "b", "c"],
            [("grp", ["a", "b"], ["b", "c"])],
            direct_edges=[("a", "c")],
        )
        assert graph.num_real_nodes == 3
        assert graph.num_virtual_nodes == 1
        a = graph.internal("a")
        assert graph.neighbor_set(a) == {graph.internal("b"), graph.internal("c")}


def weighted_path() -> CondensedGraph:
    """``a -> b`` weighing 3 and ``b -> c`` weighing 5, as an aggregate
    rule loads them: direct edges with annotations."""
    graph = CondensedGraph()
    graph.bulk_add_real_nodes([("a",), ("b",), ("c",)])
    graph.load_edges([("a", "b", 3), ("b", "c", 5)], property_names=["w"])
    return graph


class TestRemovedEdgeAnnotations:
    """An edge annotation lives exactly as long as its logical edge."""

    def test_removing_a_node_drops_the_annotations_of_its_edges(self):
        from repro.dedup import expand

        graph = weighted_path()
        graph.remove_real_node(graph.internal("c"))
        assert graph.edge_annotations == {(0, 1): {"w": 3}}
        assert expand(graph).get_edge_property("a", "b", "w") == 3

    def test_removing_the_last_path_drops_the_annotation(self):
        from repro.dedup import expand

        graph = weighted_path()
        graph.remove_edge(0, 1)
        assert graph.edge_annotations == {(1, 2): {"w": 5}}
        assert expand(graph).get_edge_property("b", "c", "w") == 5

    def test_an_annotation_stays_while_a_virtual_path_carries_the_edge(self):
        graph = weighted_path()
        virtual = graph.add_virtual_node()
        graph.add_edge(0, virtual)
        graph.add_edge(virtual, 1)
        graph.remove_edge(0, 1)  # a redundant direct edge, as DEDUP-1 removes it
        assert graph.edge_annotations[0, 1] == {"w": 3}
        graph.remove_edge(virtual, 1)
        graph.remove_edge(0, virtual)  # the walk stops at virtual, not at b
        assert (0, 1) in graph.edge_annotations  # only a direct-edge removal drops it

    def test_a_deleted_logical_edge_loses_its_weight(self):
        from repro.graph import CDupGraph, ExpandedGraph

        graph = CDupGraph(weighted_path())
        exp = ExpandedGraph()
        for vertex in "abc":
            exp.add_vertex(vertex)
        exp.add_edge("a", "b")
        exp.set_edge_property("a", "b", "w", 3)
        for mutated in (graph, exp):
            mutated.delete_edge("a", "b")
            assert mutated.get_edge_property("a", "b", "w", "none") == "none"
            mutated.add_edge("a", "b")
            assert mutated.get_edge_property("a", "b", "w", "none") == "none"

    def test_a_deleted_edge_carried_by_a_virtual_node_loses_its_weight(self):
        from repro.graph import CDupGraph

        condensed = weighted_path()
        virtual = condensed.add_virtual_node()
        condensed.add_edge(0, virtual)
        condensed.add_edge(virtual, 1)
        graph = CDupGraph(condensed)
        graph.delete_edge("a", "b")
        assert not graph.exists_edge("a", "b")
        assert graph.get_edge_property("a", "b", "w") is None


class TestCopyOnWrite:
    def test_a_copy_shares_every_row_until_one_side_writes_it(self, figure1_condensed):
        graph = figure1_condensed
        clone = graph.copy()
        assert all(clone.succ[n] is row for n, row in graph.succ.items())
        assert all(clone.pred[n] is row for n, row in graph.pred.items())
        before = CondensedCounters.row_copies
        a1, virtual = clone.internal(1), next(iter(clone.virtual_nodes()))
        clone.add_edge(a1, virtual)
        clone.add_edge(a1, virtual)  # a row is copied once
        assert CondensedCounters.row_copies - before == 2
        assert [n for n in graph.succ if clone.succ[n] is not graph.succ[n]] == [a1]
        assert [n for n in graph.pred if clone.pred[n] is not graph.pred[n]] == [virtual]

    def test_a_graph_never_copied_copies_no_row(self, figure1_condensed):
        before = CondensedCounters.row_copies
        figure1_condensed.add_edge(0, 1)
        figure1_condensed.remove_real_node(1)
        assert CondensedCounters.row_copies == before
