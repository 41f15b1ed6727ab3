"""Tests for the graph algorithms, cross-checked against NetworkX."""

import networkx as nx
import pytest

from repro.algorithms import (
    approximate_diameter,
    average_clustering,
    average_degree,
    average_path_length,
    bfs_distances,
    bfs_order,
    bfs_tree,
    communities,
    component_sizes,
    connected_components,
    count_triangles,
    degrees,
    eccentricity,
    label_propagation,
    largest_component,
    max_degree_vertex,
    num_components,
    pagerank,
    reachable_set,
    shortest_path,
    top_k_pagerank,
    triangles_per_vertex,
)
from repro.algorithms.centrality import betweenness_centrality
from repro.algorithms.similarity import link_predictions
from repro.exceptions import RepresentationError, UsageError
from repro.graph import CDupGraph, ExpandedGraph, expanded_from_condensed
from repro.io import to_networkx

from tests.conftest import build_symmetric_condensed


TWO_VERTICES = ExpandedGraph.from_edges([(1, 2), (2, 1)])


@pytest.fixture(scope="module")
def sample_graph() -> ExpandedGraph:
    condensed = build_symmetric_condensed(seed=11, num_real=60, num_virtual=20, max_size=7)
    return expanded_from_condensed(condensed)


@pytest.fixture(scope="module")
def sample_nx(sample_graph) -> nx.DiGraph:
    return to_networkx(sample_graph)


class TestDegree:
    def test_degrees_match_networkx(self, sample_graph, sample_nx):
        ours = degrees(sample_graph)
        assert ours == dict(sample_nx.out_degree())

    def test_average_and_max(self, sample_graph):
        values = degrees(sample_graph)
        assert average_degree(sample_graph) == pytest.approx(
            sum(values.values()) / len(values)
        )
        vertex, degree = max_degree_vertex(sample_graph)
        assert degree == max(values.values())
        assert values[vertex] == degree

    def test_empty_graph(self):
        graph = ExpandedGraph()
        assert degrees(graph) == {}
        assert average_degree(graph) == 0.0
        assert max_degree_vertex(graph) is None


class TestBFS:
    def test_distances_match_networkx(self, sample_graph, sample_nx):
        source = next(iter(sample_graph.get_vertices()))
        ours = bfs_distances(sample_graph, source)
        theirs = nx.single_source_shortest_path_length(sample_nx, source)
        assert ours == dict(theirs)

    def test_max_depth_truncates(self, sample_graph):
        source = next(iter(sample_graph.get_vertices()))
        shallow = bfs_distances(sample_graph, source, max_depth=1)
        assert all(depth <= 1 for depth in shallow.values())

    def test_order_and_tree_consistency(self, sample_graph):
        source = next(iter(sample_graph.get_vertices()))
        order = bfs_order(sample_graph, source)
        tree = bfs_tree(sample_graph, source)
        assert order[0] == source
        assert set(order) == set(tree)
        assert tree[source] is None
        assert reachable_set(sample_graph, source) == set(order)

    def test_shortest_path_endpoints(self, sample_graph):
        source = next(iter(sample_graph.get_vertices()))
        distances = bfs_distances(sample_graph, source)
        target = max(distances, key=distances.get)
        path = shortest_path(sample_graph, source, target)
        assert path[0] == source and path[-1] == target
        assert len(path) == distances[target] + 1

    def test_unreachable_returns_none(self):
        graph = ExpandedGraph()
        graph.add_vertex("a")
        graph.add_vertex("b")
        assert shortest_path(graph, "a", "b") is None

    def test_missing_source_raises(self, sample_graph):
        with pytest.raises(RepresentationError):
            bfs_distances(sample_graph, "nope")


class TestPageRank:
    def test_matches_networkx(self, sample_graph, sample_nx):
        ours = pagerank(sample_graph, max_iterations=200, tolerance=1e-12)
        theirs = nx.pagerank(sample_nx, alpha=0.85, max_iter=200, tol=1e-12)
        assert max(abs(ours[v] - theirs[v]) for v in ours) < 1e-6

    def test_sums_to_one(self, sample_graph):
        scores = pagerank(sample_graph)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_dangling_nodes_handled(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])  # 3 is dangling
        scores = pagerank(graph, max_iterations=100)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
        assert scores[3] > scores[1]

    def test_top_k(self, sample_graph):
        top = top_k_pagerank(sample_graph, k=5)
        assert len(top) == 5
        assert top == sorted(top, key=lambda item: -item[1])

    def test_empty_graph(self):
        assert pagerank(ExpandedGraph()) == {}

    def test_works_on_condensed_representation(self):
        condensed = build_symmetric_condensed(seed=2, num_real=30, num_virtual=10)
        expanded = expanded_from_condensed(condensed)
        direct = pagerank(expanded, max_iterations=100)
        via_cdup = pagerank(CDupGraph(condensed), max_iterations=100)
        assert max(abs(direct[v] - via_cdup[v]) for v in direct) < 1e-12


class TestConnectedComponents:
    def test_matches_networkx_weak_components(self, sample_graph, sample_nx):
        ours = connected_components(sample_graph)
        theirs = list(nx.weakly_connected_components(sample_nx))
        assert num_components(sample_graph) == len(theirs)
        # every NetworkX component maps to exactly one of our labels
        for component in theirs:
            labels = {ours[v] for v in component}
            assert len(labels) == 1

    def test_component_sizes_and_largest(self, sample_graph, sample_nx):
        sizes = component_sizes(sample_graph)
        assert sizes == sorted(
            (len(c) for c in nx.weakly_connected_components(sample_nx)), reverse=True
        )
        assert len(largest_component(sample_graph)) == sizes[0]

    def test_isolated_vertices(self):
        graph = ExpandedGraph()
        graph.add_vertex("x")
        graph.add_edge("a", "b")
        assert num_components(graph) == 2


class TestTriangles:
    def test_count_matches_networkx(self, sample_graph, sample_nx):
        undirected = sample_nx.to_undirected()
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        expected = sum(nx.triangles(undirected).values()) // 3
        assert count_triangles(sample_graph) == expected

    def test_per_vertex_matches_networkx(self, sample_graph, sample_nx):
        undirected = sample_nx.to_undirected()
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        expected = nx.triangles(undirected)
        ours = triangles_per_vertex(sample_graph)
        assert ours == {v: expected.get(v, 0) for v in ours}

    def test_clustering_close_to_networkx(self, sample_graph, sample_nx):
        undirected = sample_nx.to_undirected()
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        assert average_clustering(sample_graph) == pytest.approx(
            nx.average_clustering(undirected), abs=1e-9
        )


class TestCommunitiesAndPaths:
    def test_label_propagation_partitions_vertices(self, sample_graph):
        labels = label_propagation(sample_graph, seed=1)
        assert set(labels) == set(sample_graph.get_vertices())
        groups = communities(sample_graph, seed=1)
        assert sum(len(g) for g in groups) == sample_graph.num_vertices()
        assert len(groups) >= num_components(sample_graph)

    def test_eccentricity_and_diameter(self, sample_graph):
        source = next(iter(sample_graph.get_vertices()))
        assert eccentricity(sample_graph, source) == max(
            bfs_distances(sample_graph, source).values()
        )
        assert approximate_diameter(sample_graph, samples=5) >= 1

    def test_average_path_length_positive(self, sample_graph):
        assert average_path_length(sample_graph, samples=5) > 0

    def test_path_metrics_on_empty_graph(self):
        graph = ExpandedGraph()
        assert approximate_diameter(graph) == 0
        assert average_path_length(graph) == 0.0

    @pytest.mark.parametrize(
        "free, planned",
        [
            (lambda g: betweenness_centrality(g, sample_size=0), lambda p: p.betweenness(sample_size=0)),
            (lambda g: betweenness_centrality(g, sample_size=-2), lambda p: p.betweenness(sample_size=-2)),
            (
                # n <= 2 answers without a sweep, but the check comes first
                lambda g: betweenness_centrality(TWO_VERTICES, sample_size=0),
                lambda p: p.betweenness(sample_size=0),
            ),
            (lambda g: approximate_diameter(g, samples=0), lambda p: p.diameter(samples=0)),
            (lambda g: approximate_diameter(g, samples=-1), lambda p: p.diameter(samples=-1)),
            (lambda g: average_path_length(g, samples=-1), lambda p: p.diameter(samples=-1)),
            (lambda g: pagerank(g, damping="x"), lambda p: p.pagerank(damping="x")),
            (lambda g: pagerank(g, damping=1.5), lambda p: p.pagerank(damping=1.5)),
            (lambda g: link_predictions(g, score="nope"), lambda p: p.link_predictions(score="nope")),
            (lambda g: bfs_distances(g, None), lambda p: p.bfs(source=None)),
            (lambda g: reachable_set(g, None), lambda p: p.bfs(source=None)),
            (lambda g: link_predictions(g, k=-1), lambda p: p.link_predictions(k=-1)),
            (lambda g: link_predictions(g, k="2"), lambda p: p.link_predictions(k="2")),
            (lambda g: link_predictions(g, k=1.5), lambda p: p.link_predictions(k=1.5)),
            (lambda g: link_predictions(g, k=True), lambda p: p.link_predictions(k=True)),
            (lambda g: pagerank(g, max_iterations="x"), lambda p: p.pagerank(max_iterations="x")),
            (lambda g: pagerank(g, max_iterations=-1), lambda p: p.pagerank(max_iterations=-1)),
            (lambda g: pagerank(g, tolerance="x"), lambda p: p.pagerank(tolerance="x")),
            (lambda g: pagerank(g, tolerance=-1e-9), lambda p: p.pagerank(tolerance=-1e-9)),
            (lambda g: pagerank(g, tolerance=True), lambda p: p.pagerank(tolerance=True)),
            (
                lambda g: label_propagation(g, max_iterations="x"),
                lambda p: p.label_propagation(max_iterations="x"),
            ),
            (
                lambda g: communities(g, max_iterations=-1),
                lambda p: p.label_propagation(max_iterations=-1),
            ),
            (
                lambda g: bfs_distances(g, 0, max_depth="x"),
                lambda p: p.bfs(source=0, max_depth="x"),
            ),
            (lambda g: bfs_distances(g, 0, max_depth=-1), lambda p: p.bfs(source=0, max_depth=-1)),
        ],
        ids=[
            "betweenness-0",
            "betweenness--2",
            "betweenness-0-two-vertices",
            "diameter-0",
            "diameter--1",
            "path-length--1",
            "pagerank-damping-str",
            "pagerank-damping-1.5",
            "link-predictions-score",
            "bfs-source-none",
            "reachable-set-source-none",
            "link-predictions-k--1",
            "link-predictions-k-str",
            "link-predictions-k-float",
            "link-predictions-k-bool",
            "pagerank-max-iterations-str",
            "pagerank-max-iterations--1",
            "pagerank-tolerance-str",
            "pagerank-tolerance-negative",
            "pagerank-tolerance-bool",
            "label-propagation-max-iterations-str",
            "communities-max-iterations--1",
            "bfs-max-depth-str",
            "bfs-max-depth--1",
        ],
    )
    def test_bad_sample_counts_fail_like_the_plan_does(self, sample_graph, free, planned):
        """Every free function runs its plan request's check, with its message.
        Was: ZeroDivisionError, random.sample's ValueError, a silent answer, a
        bare TypeError, a ValueError worded apart from the plan's, or (BFS
        from ``None``) a RepresentationError where the plan raised UsageError.
        A bad ``k``, ``max_iterations``, ``tolerance`` or ``max_depth`` was a
        bare TypeError or a silently wrong answer (all-but-last predictions,
        an unbounded BFS, the starting state).
        The BFS helpers outside the registry (``bfs_order``, ``bfs_tree``,
        ``shortest_path``) keep their RepresentationError for any source not
        in the graph, ``None`` included."""
        from repro.relational.database import Database
        from repro.session import GraphSession

        with pytest.raises(UsageError) as from_plan:
            planned(GraphSession(Database("samples")).wrap(sample_graph).analyze())
        with pytest.raises(UsageError) as from_free_function:
            free(sample_graph)
        assert str(from_free_function.value) == str(from_plan.value)
