"""Tests for the extractor: node loading, condensed edges, Step 6, reports."""

import pytest

from repro.core.config import ExtractionOptions
from repro.core.extractor import Extractor
from repro.core.planner import Planner
from repro.dsl.parser import parse
from repro.graph import CDupGraph, expanded_from_condensed, logically_equivalent
from repro.relational.database import Database

from tests.conftest import (
    BIPARTITE_QUERY,
    COAUTHOR_QUERY,
    CONDENSE_ALL,
    CONDENSE_NONE,
    large_output_factor,
)


def extract(db, query, factor: float = 2, **options):
    """Plan ``query`` at large-output ``factor``, then extract it."""
    opts = ExtractionOptions(**options)
    with large_output_factor(factor):
        plan = Planner(db, opts).plan(parse(query))
    return Extractor(db, opts).extract_condensed(plan)


class TestNodeLoading:
    def test_nodes_and_properties(self, toy_dblp):
        graph, report = extract(toy_dblp, COAUTHOR_QUERY)
        assert graph.num_real_nodes == 6
        assert report.real_nodes == 6
        node = graph.internal(1)
        assert graph.node_properties[node]["Name"] == "author_1"

    def test_multiple_nodes_statements(self, toy_univ):
        graph, _ = extract(toy_univ, BIPARTITE_QUERY)
        assert graph.num_real_nodes == 5  # 3 students + 2 instructors


class TestCondensedEdges:
    def test_coauthor_condensed_with_forced_virtual_nodes(self, toy_dblp):
        graph, report = extract(
            toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False
        )
        assert graph.num_virtual_nodes == 3  # one per paper
        assert graph.num_condensed_edges == 18
        assert report.queries_executed == 3  # nodes + 2 segments
        cdup = CDupGraph(graph)
        assert set(cdup.get_neighbors(1)) == {1, 2, 3, 4, 5}

    def test_small_join_loads_direct_edges(self, toy_dblp):
        graph, _ = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_NONE)
        assert graph.num_virtual_nodes == 0
        expanded = expanded_from_condensed(graph)
        reference, _ = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False)
        assert logically_equivalent(expanded, expanded_from_condensed(reference))

    def test_bipartite_heterogeneous_graph(self, toy_univ):
        graph, _ = extract(toy_univ, BIPARTITE_QUERY, factor=CONDENSE_ALL, preprocess=False)
        cdup = CDupGraph(graph)
        assert set(cdup.get_neighbors(100)) == {1, 2, 3}  # i1 taught both courses
        assert set(cdup.get_neighbors(101)) == {2, 3}
        # students have no out-edges in the directed bipartite graph
        assert list(cdup.get_neighbors(1)) == []

    def test_skip_unknown_endpoints(self, toy_dblp):
        toy_dblp.insert("AuthorPub", [(99, 1)])  # author 99 has no Author row
        graph, report = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_NONE)
        assert not graph.has_external(99)
        assert report.skipped_edge_tuples > 0

    def test_unknown_endpoints_added_when_allowed(self, toy_dblp):
        toy_dblp.insert("AuthorPub", [(99, 1)])
        graph, _ = extract(
            toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_NONE, skip_unknown_endpoints=False
        )
        assert graph.has_external(99)


class TestPreprocessing:
    def test_step6_expands_cheap_virtual_nodes(self, toy_dblp):
        graph, report = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=True)
        # p3 has only two authors (2*2 <= 2+2+1), so it is expanded away
        assert report.preprocessing_expanded_virtual_nodes >= 1
        assert graph.num_virtual_nodes < 3
        reference, _ = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False)
        assert logically_equivalent(
            expanded_from_condensed(graph), expanded_from_condensed(reference)
        )

    def test_preprocess_disabled(self, toy_dblp):
        _, report = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False)
        assert report.preprocessing_expanded_virtual_nodes == 0


class TestExpandedExtraction:
    def test_sqlite_backend_parity(self, toy_dblp):
        python_graph, _ = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False)
        sqlite_graph, _ = extract(
            toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL, preprocess=False, extract_engine="sqlite"
        )
        assert logically_equivalent(
            expanded_from_condensed(python_graph), expanded_from_condensed(sqlite_graph)
        )


class TestReport:
    def test_report_fields(self, toy_dblp):
        _, report = extract(toy_dblp, COAUTHOR_QUERY, factor=CONDENSE_ALL)
        data = report.as_dict()
        assert data["real_nodes"] == 6
        assert data["seconds"] >= 0
        assert data["per_rule_edges"] and sum(data["per_rule_edges"]) > 0
