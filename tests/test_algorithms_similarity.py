"""Tests for neighborhood similarity and link prediction."""

import math

import networkx as nx
import pytest

from repro.algorithms.similarity import (
    adamic_adar,
    common_neighbors,
    jaccard_coefficient,
    link_predictions,
    preferential_attachment,
    similarity_matrix,
)
from repro.exceptions import UsageError
from repro.graph.cdup import CDupGraph
from repro.graph.expanded import ExpandedGraph


def _undirected(edges):
    directed = []
    for u, v in edges:
        directed.append((u, v))
        directed.append((v, u))
    return ExpandedGraph.from_edges(directed)


@pytest.fixture
def square_with_diagonal():
    """Square 0-1-2-3 plus diagonal 0-2."""
    return _undirected([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


class TestPairwiseScores:
    def test_common_neighbors(self, square_with_diagonal):
        assert common_neighbors(square_with_diagonal, 1, 3) == {0, 2}
        assert common_neighbors(square_with_diagonal, 0, 2) == {1, 3}

    def test_jaccard(self, square_with_diagonal):
        # N(1) = {0, 2}, N(3) = {0, 2}
        assert jaccard_coefficient(square_with_diagonal, 1, 3) == pytest.approx(1.0)
        # N(0) = {1, 2, 3}, N(1) = {0, 2}: intersection {2}, union {0,1,2,3}
        assert jaccard_coefficient(square_with_diagonal, 0, 1) == pytest.approx(0.25)

    def test_jaccard_empty_neighborhoods(self):
        graph = ExpandedGraph()
        graph.add_vertex("a")
        graph.add_vertex("b")
        assert jaccard_coefficient(graph, "a", "b") == 0.0

    def test_adamic_adar(self, square_with_diagonal):
        # common neighbors of 1 and 3 are 0 (degree 3) and 2 (degree 3)
        expected = 1 / math.log(3) + 1 / math.log(3)
        assert adamic_adar(square_with_diagonal, 1, 3) == pytest.approx(expected)

    def test_adamic_adar_ignores_degree_one_neighbors(self):
        graph = _undirected([(0, 1), (1, 2)])
        # vertex 1 has degree 2 -> contributes 1/log(2); nothing else shared
        assert adamic_adar(graph, 0, 2) == pytest.approx(1 / math.log(2))

    def test_preferential_attachment(self, square_with_diagonal):
        assert preferential_attachment(square_with_diagonal, 0, 2) == 9
        assert preferential_attachment(square_with_diagonal, 1, 3) == 4

    def test_matches_networkx_jaccard(self):
        nx_graph = nx.gnm_random_graph(20, 50, seed=11)
        graph = _undirected(nx_graph.edges())
        pairs = [(0, 1), (2, 7), (4, 9), (10, 15)]
        expected = {(u, v): p for u, v, p in nx.jaccard_coefficient(nx_graph, pairs)}
        for (u, v), value in expected.items():
            assert jaccard_coefficient(graph, u, v) == pytest.approx(value)

    def test_matches_networkx_adamic_adar(self):
        nx_graph = nx.gnm_random_graph(20, 50, seed=12)
        graph = _undirected(nx_graph.edges())
        pairs = [(0, 3), (1, 8), (5, 14)]
        expected = {(u, v): p for u, v, p in nx.adamic_adar_index(nx_graph, pairs)}
        for (u, v), value in expected.items():
            assert adamic_adar(graph, u, v) == pytest.approx(value)


class TestLinkPrediction:
    def test_predictions_are_non_edges(self, square_with_diagonal):
        for u, v, _ in link_predictions(square_with_diagonal, k=10):
            assert not square_with_diagonal.exists_edge(u, v)

    def test_missing_diagonal_is_top_prediction(self, square_with_diagonal):
        predictions = link_predictions(square_with_diagonal, k=1, score="common_neighbors")
        assert predictions[0][:2] == (1, 3)
        assert predictions[0][2] == 2.0

    def test_explicit_candidates(self, square_with_diagonal):
        predictions = link_predictions(
            square_with_diagonal, k=5, score="jaccard", candidates=[(1, 3)]
        )
        assert len(predictions) == 1
        assert predictions[0][2] == pytest.approx(1.0)

    def test_unknown_score_rejected(self, square_with_diagonal):
        with pytest.raises(UsageError, match="link_predictions: unknown score 'cosine'"):
            link_predictions(square_with_diagonal, score="cosine")

    def test_scores_descending(self):
        nx_graph = nx.gnm_random_graph(15, 30, seed=13)
        graph = _undirected(nx_graph.edges())
        predictions = link_predictions(graph, k=10, score="adamic_adar")
        scores = [score for _, _, score in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_works_on_condensed_representation(self, figure1_condensed):
        graph = CDupGraph(figure1_condensed)
        predictions = link_predictions(graph, k=5, score="common_neighbors")
        for u, v, _ in predictions:
            assert not graph.exists_edge(u, v)


class TestSimilarityMatrix:
    def test_symmetric_and_complete(self, square_with_diagonal):
        matrix = similarity_matrix(square_with_diagonal, [0, 1, 2], score="jaccard")
        assert matrix[(0, 1)] == matrix[(1, 0)]
        assert len(matrix) == 6

    def test_unknown_score_rejected(self, square_with_diagonal):
        """The same score check and message as link prediction's."""
        with pytest.raises(UsageError, match="similarity_matrix: unknown score 'nope'; expected"):
            similarity_matrix(square_with_diagonal, [0, 1], score="nope")
