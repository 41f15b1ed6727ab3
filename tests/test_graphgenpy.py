"""Tests for the graphgenpy scripting wrapper."""

import json

import networkx as nx
import pytest

from repro.exceptions import GraphGenError
from repro.graphgenpy import GraphGenPy, extract_to_networkx, load_networkx
from repro.io.serialize import read_condensed_json


class TestExecuteQuery:
    def test_edge_list_serialization(self, toy_dblp, coauthor_query, tmp_path):
        path = tmp_path / "coauthors.tsv"
        result = GraphGenPy(toy_dblp).execute_query(coauthor_query, path)
        assert result.path == path
        assert result.format == "edgelist"
        assert result.num_vertices == 6
        assert result.num_edges > 0
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) == result.num_edges

    def test_adjacency_serialization(self, toy_dblp, coauthor_query, tmp_path):
        path = tmp_path / "coauthors.json"
        result = GraphGenPy(toy_dblp).execute_query(coauthor_query, path, fmt="adjacency")
        payload = json.loads(path.read_text())
        assert result.num_vertices == 6
        assert payload  # at least some adjacency entries

    def test_condensed_serialization_round_trips(self, toy_dblp, coauthor_query, tmp_path):
        path = tmp_path / "coauthors.condensed.json"
        result = GraphGenPy(toy_dblp).execute_query(coauthor_query, path, fmt="condensed")
        reloaded = read_condensed_json(path)
        assert reloaded.num_real_nodes == result.num_vertices
        assert reloaded.num_condensed_edges == result.num_edges

    def test_unknown_format_rejected(self, toy_dblp, coauthor_query, tmp_path):
        with pytest.raises(GraphGenError):
            GraphGenPy(toy_dblp).execute_query(coauthor_query, tmp_path / "x", fmt="graphml")

    def test_options_forwarded_to_graphgen(self, toy_dblp, coauthor_query, tmp_path):
        gpy = GraphGenPy(toy_dblp, preprocess=False)
        assert gpy.graphgen.options.preprocess is False
        result = gpy.execute_query(coauthor_query, tmp_path / "out.tsv")
        assert result.extraction_seconds >= 0.0


class TestNetworkXInterop:
    def test_execute_to_networkx(self, toy_dblp, coauthor_query):
        nx_graph = GraphGenPy(toy_dblp).execute_to_networkx(coauthor_query)
        assert isinstance(nx_graph, nx.DiGraph)
        assert nx_graph.has_edge(1, 4)
        assert nx_graph.has_edge(4, 1)

    def test_extract_to_networkx_helper(self, toy_dblp, coauthor_query):
        nx_graph = extract_to_networkx(toy_dblp, coauthor_query)
        # co-author graph of the toy dataset is connected
        assert nx.number_weakly_connected_components(nx_graph) == 1

    def test_load_networkx_round_trip(self, toy_dblp, coauthor_query, tmp_path):
        path = tmp_path / "coauthors.tsv"
        GraphGenPy(toy_dblp).execute_query(coauthor_query, path)
        reloaded = load_networkx(path)
        direct = extract_to_networkx(toy_dblp, coauthor_query)
        assert set(map(str, direct.nodes())) >= {str(n) for n in reloaded.nodes()}
        assert reloaded.number_of_edges() == direct.number_of_edges()

    def test_execute_to_graph_matches_graphgen(self, toy_dblp, coauthor_query):
        graph = GraphGenPy(toy_dblp).execute_to_graph(coauthor_query, representation="exp")
        assert graph.representation_name == "EXP"
        assert graph.exists_edge(1, 2)
