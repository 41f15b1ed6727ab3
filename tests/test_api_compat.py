"""Backward-compatibility shims: every pre-existing public entry point keeps
working verbatim on top of the new session internals.

The session redesign turned the per-algorithm free functions into thin
delegations around kernel-level entry points, and the CLI into a
GraphSession client.  These tests import and exercise each *old* path — the
``run_*`` superstep wrappers, every ``repro.algorithms`` free function, the
``GraphGen.extract*`` family and the ``graphgenpy`` scripting wrapper — and
additionally pin the delegation contract: a free function must return
exactly what its kernel entry point (decoded) returns.
"""

from __future__ import annotations

import pytest

import repro
import repro.algorithms as algorithms
from repro import Database, GraphGen, GraphGenPy, extract_to_networkx
from repro.algorithms import (
    adamic_adar,
    approximate_diameter,
    average_clustering,
    average_degree,
    average_path_length,
    betweenness_centrality,
    bfs_distances,
    bfs_order,
    bfs_tree,
    closeness_centrality,
    clustering_coefficient,
    common_neighbors,
    communities,
    component_sizes,
    connected_components,
    core_numbers,
    count_triangles,
    degeneracy,
    degeneracy_ordering,
    degree_centrality,
    degree_of,
    degrees,
    densest_core,
    eccentricity,
    jaccard_coefficient,
    k_core,
    label_propagation,
    largest_component,
    link_predictions,
    max_degree_vertex,
    num_components,
    pagerank,
    preferential_attachment,
    reachable_set,
    shortest_path,
    similarity_matrix,
    single_source_shortest_paths,
    top_k_central,
    top_k_pagerank,
    triangles_per_vertex,
)
from repro.giraph import run_giraph
from repro.vertexcentric.programs import (
    run_connected_components,
    run_degree,
    run_label_propagation,
    run_pagerank,
    run_sssp,
)
from tests.conftest import COAUTHOR_QUERY


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database("compat_dblp")
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("AuthorPub", [("aid", "int"), ("pid", "int")])
    db.insert("Author", [(i, f"author_{i}") for i in range(1, 8)])
    db.insert(
        "AuthorPub",
        [
            (1, 1), (2, 1), (3, 1),
            (1, 2), (4, 2), (5, 2),
            (5, 3), (6, 3), (7, 3),
        ],
    )
    return db


@pytest.fixture(scope="module")
def graph(db):
    return GraphGen(db).extract(COAUTHOR_QUERY)


class TestGraphGenEntryPoints:
    def test_extract_family(self, db):
        gg = GraphGen(db)
        graph = gg.extract(COAUTHOR_QUERY, representation="exp")
        assert graph.representation_name == "EXP"
        result = gg.extract_with_report(COAUTHOR_QUERY, representation="bitmap")
        assert result.representation == "bitmap"
        assert result.report.real_nodes == result.graph.num_vertices()
        condensed, report = gg.extract_condensed(COAUTHOR_QUERY)
        assert condensed.num_real_nodes == report.real_nodes
        assert "extraction plan" in gg.explain(COAUTHOR_QUERY)
        assert gg.plan(COAUTHOR_QUERY).describe()

    def test_graphgenpy_wrapper(self, db, tmp_path):
        gpy = GraphGenPy(db)
        serialized = gpy.execute_query(COAUTHOR_QUERY, tmp_path / "coauthors.tsv")
        assert serialized.path.exists()
        assert serialized.num_vertices == 7
        in_memory = gpy.execute_to_graph(COAUTHOR_QUERY)
        assert in_memory.num_vertices() == 7

    def test_extract_to_networkx(self, db):
        nx_graph = extract_to_networkx(db, COAUTHOR_QUERY)
        assert nx_graph.number_of_nodes() == 7


class TestAlgorithmFreeFunctions:
    """Every name in repro.algorithms.__all__ is exercised here."""

    def test_every_exported_name_is_exercised(self):
        exercised = {
            name[5:]
            for name in dir(TestAlgorithmFreeFunctions)
            if name.startswith("test_") and name != "test_every_exported_name_is_exercised"
        }
        # one test method per module; ensure no export was forgotten
        covered = set()
        for method, names in self.COVERAGE.items():
            assert method in exercised, f"missing test method {method}"
            covered.update(names)
        assert covered == set(algorithms.__all__)

    COVERAGE = {
        "degree": ["average_degree", "degree_of", "degrees", "max_degree_vertex"],
        "bfs": ["bfs_distances", "bfs_order", "bfs_tree", "reachable_set", "shortest_path"],
        "pagerank": ["pagerank", "top_k_pagerank"],
        "components": [
            "component_sizes",
            "connected_components",
            "largest_component",
            "num_components",
        ],
        "label_propagation": ["communities", "label_propagation"],
        "triangles": [
            "average_clustering",
            "clustering_coefficient",
            "count_triangles",
            "triangles_per_vertex",
        ],
        "shortest_paths": [
            "approximate_diameter",
            "average_path_length",
            "eccentricity",
            "single_source_shortest_paths",
        ],
        "kcore": ["core_numbers", "degeneracy", "degeneracy_ordering", "densest_core", "k_core"],
        "centrality": [
            "betweenness_centrality",
            "closeness_centrality",
            "degree_centrality",
            "top_k_central",
        ],
        "similarity": [
            "adamic_adar",
            "common_neighbors",
            "jaccard_coefficient",
            "link_predictions",
            "preferential_attachment",
            "similarity_matrix",
        ],
    }

    def test_degree(self, graph):
        scores = degrees(graph)
        assert set(scores) == set(graph.get_vertices())
        assert degree_of(graph, 1) == scores[1]
        assert average_degree(graph) == sum(scores.values()) / len(scores)
        vertex, best = max_degree_vertex(graph)
        assert scores[vertex] == best == max(scores.values())

    def test_bfs(self, graph):
        distances = bfs_distances(graph, 1)
        assert distances[1] == 0
        assert bfs_order(graph, 1)[0] == 1
        tree = bfs_tree(graph, 1)
        assert tree[1] is None
        assert reachable_set(graph, 1) == set(distances)
        path = shortest_path(graph, 1, 6)
        assert path[0] == 1 and path[-1] == 6
        assert len(path) - 1 == distances[6]

    def test_pagerank(self, graph):
        scores = pagerank(graph)
        assert abs(sum(scores.values()) - 1.0) < 1e-6
        top = top_k_pagerank(graph, k=3)
        assert len(top) == 3
        assert top[0][1] == max(scores.values())

    def test_components(self, graph):
        labels = connected_components(graph)
        assert num_components(graph) == len(set(labels.values()))
        assert sum(component_sizes(graph)) == len(labels)
        assert largest_component(graph) <= set(labels)

    def test_label_propagation(self, graph):
        labels = label_propagation(graph, seed=1)
        assert set(labels) == set(graph.get_vertices())
        groups = communities(graph, seed=1)
        assert sum(len(group) for group in groups) == len(labels)

    def test_triangles(self, graph):
        total = count_triangles(graph)
        per_vertex = triangles_per_vertex(graph)
        assert sum(per_vertex.values()) == 3 * total
        assert 0.0 <= clustering_coefficient(graph, 1) <= 1.0
        assert 0.0 <= average_clustering(graph) <= 1.0

    def test_shortest_paths(self, graph):
        assert single_source_shortest_paths(graph, 1) == bfs_distances(graph, 1)
        assert eccentricity(graph, 1) >= 1
        assert approximate_diameter(graph, samples=4) >= 1
        assert average_path_length(graph, samples=4) > 0.0

    def test_kcore(self, graph):
        cores = core_numbers(graph)
        top = degeneracy(graph)
        assert top == max(cores.values())
        assert k_core(graph, top)
        k, members = densest_core(graph)
        assert k == top and members == k_core(graph, top)
        ordering = degeneracy_ordering(graph)
        assert len(ordering) == len(cores)

    def test_centrality(self, graph):
        dc = degree_centrality(graph)
        cc = closeness_centrality(graph)
        bc = betweenness_centrality(graph, sample_size=4, seed=0)
        assert set(dc) == set(cc) == set(bc)
        assert top_k_central(cc, k=2)[0][1] == max(cc.values())

    def test_similarity(self, graph):
        shared = common_neighbors(graph, 2, 3)
        assert 1 in shared
        assert 0.0 <= jaccard_coefficient(graph, 2, 3) <= 1.0
        assert adamic_adar(graph, 2, 3) >= 0.0
        assert preferential_attachment(graph, 2, 3) == len(
            set(graph.get_neighbors(2)) - {2}
        ) * len(set(graph.get_neighbors(3)) - {3})
        predictions = link_predictions(graph, k=3)
        assert len(predictions) <= 3
        matrix = similarity_matrix(graph, [1, 2, 3])
        assert matrix[(1, 2)] == matrix[(2, 1)]


class TestSuperstepWrappers:
    def test_run_degree(self, graph):
        values, stats = run_degree(graph)
        assert values == degrees(graph)
        assert stats.supersteps >= 1

    def test_run_pagerank(self, graph):
        values, _ = run_pagerank(graph, iterations=15)
        assert abs(sum(values.values()) - 1.0) < 1e-6

    def test_run_connected_components(self, graph):
        values, _ = run_connected_components(graph)
        serial = connected_components(graph)
        # same partition, possibly different label objects
        by_label: dict = {}
        for vertex, label in values.items():
            by_label.setdefault(label, set()).add(vertex)
        assert sorted(map(len, by_label.values())) == sorted(component_sizes(graph))
        assert len(by_label) == len(set(serial.values()))

    def test_run_sssp(self, graph):
        values, _ = run_sssp(graph, 1)
        reachable = {v: d for v, d in values.items() if d is not None}
        assert reachable == bfs_distances(graph, 1)

    def test_run_label_propagation(self, graph):
        values, _ = run_label_propagation(graph)
        assert set(values) == set(graph.get_vertices())

    def test_run_giraph(self, graph):
        result = run_giraph(graph, "degree")
        assert result.values == degrees(graph)

    def test_wrappers_accept_explicit_backend(self, graph):
        default, _ = run_degree(graph)
        explicit, _ = run_degree(graph, backend="python")
        assert explicit == default


class TestDelegationContract:
    """The pre-session package surface is still importable."""

    def test_top_level_exports_still_present(self):
        for name in ("GraphGen", "GraphGenPy", "Database", "parse_query"):
            assert hasattr(repro, name)
