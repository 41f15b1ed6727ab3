"""End-to-end tests for the GraphGen facade."""

import pytest

from repro.core import ExtractionOptions, GraphGen
from repro.exceptions import ExtractionError
from repro.graph import (
    BitmapGraph,
    CDupGraph,
    Dedup1Graph,
    Dedup2Graph,
    ExpandedGraph,
    logical_edge_set,
    logically_equivalent,
)

from tests.conftest import BIPARTITE_QUERY, COAUTHOR_QUERY, CONDENSE_ALL, large_output_factor


@pytest.fixture
def gg(toy_dblp) -> GraphGen:
    # a tiny factor forces the condensed path so every representation is exercised
    with large_output_factor(CONDENSE_ALL):
        yield GraphGen(toy_dblp, preprocess=False)


class TestFacadeBasics:
    def test_options_exclusive_with_overrides(self, toy_dblp):
        with pytest.raises(ValueError):
            GraphGen(toy_dblp, ExtractionOptions(), preprocess=False)

    @pytest.mark.parametrize("name", ["threshold_factor", "estimator", "auto_expand_growth"])
    def test_planner_knobs_are_gone(self, toy_dblp, name):
        """Which joins condense is the paper's rule on the exact join size,
        and ``auto`` is the paper's 20 %: nothing to tune."""
        with pytest.raises(TypeError):
            GraphGen(toy_dblp, **{name: 2.0})
        assert list(ExtractionOptions.__dataclass_fields__) == [
            "preprocess",
            "skip_unknown_endpoints",
            "extract_engine",
        ]

    def test_parse_passthrough(self, gg):
        spec = gg.parse(COAUTHOR_QUERY)
        assert gg.parse(spec) is spec

    def test_explain_contains_plan_and_sql(self, gg):
        text = gg.explain(COAUTHOR_QUERY)
        assert "extraction plan" in text
        assert "SELECT DISTINCT" in text

    def test_unknown_representation_rejected(self, gg):
        with pytest.raises(ExtractionError):
            gg.extract(COAUTHOR_QUERY, representation="hologram")


class TestRepresentations:
    def test_cdup_default(self, gg):
        graph = gg.extract(COAUTHOR_QUERY)
        assert isinstance(graph, CDupGraph)
        assert set(graph.get_neighbors(1)) == {1, 2, 3, 4, 5}

    def test_every_representation_is_equivalent(self, gg):
        reference = gg.extract(COAUTHOR_QUERY, representation="exp")
        assert isinstance(reference, ExpandedGraph)
        for representation, expected_type in [
            ("cdup", CDupGraph),
            ("dedup1", Dedup1Graph),
            ("bitmap", BitmapGraph),
        ]:
            graph = gg.extract(COAUTHOR_QUERY, representation=representation)
            assert isinstance(graph, expected_type)
            assert logically_equivalent(graph, reference)
        dedup2 = gg.extract(COAUTHOR_QUERY, representation="dedup2")
        assert isinstance(dedup2, Dedup2Graph)
        assert logical_edge_set(dedup2) == {
            (u, v) for (u, v) in logical_edge_set(reference) if u != v
        }

    def test_dedup_algorithm_selection(self, gg):
        graph = gg.extract(
            COAUTHOR_QUERY, representation="dedup1", dedup_algorithm="naive_real_first"
        )
        assert not graph.condensed.has_duplication()

    def test_extract_with_report(self, gg):
        result = gg.extract_with_report(COAUTHOR_QUERY, representation="bitmap")
        assert result.representation == "bitmap"
        assert result.report.real_nodes == 6
        assert result.plan.case == 1
        assert result.condensed.num_virtual_nodes == 3

    def test_auto_expands_small_graph(self, toy_univ):
        # two course nodes storing 7 edges for 5 instructor -> student pairs
        with large_output_factor(CONDENSE_ALL):
            gg = GraphGen(toy_univ, preprocess=False)
            result = gg.extract_with_report(BIPARTITE_QUERY, representation="auto")
        assert result.condensed.num_virtual_nodes == 2
        assert (result.report.condensed_edges, result.report.expanded_edges) == (7, 5)
        assert result.representation == "exp"
        assert isinstance(result.graph, ExpandedGraph)

    def test_auto_keeps_condensed_for_dense_graph(self, toy_dblp):
        # 24 co-author pairs against 18 stored edges: more than 20 % growth
        with large_output_factor(CONDENSE_ALL):
            result = GraphGen(toy_dblp).extract_with_report(COAUTHOR_QUERY, representation="auto")
        assert result.report.condensed_edges == 18
        assert result.condensed.expanded_edge_count() == 24
        assert result.representation == "cdup"
        assert isinstance(result.graph, CDupGraph)


class TestHeterogeneousGraph:
    def test_bipartite_extraction(self, toy_univ):
        with large_output_factor(CONDENSE_ALL):
            graph = GraphGen(toy_univ).extract(BIPARTITE_QUERY)
        assert graph.num_vertices() == 5
        assert set(graph.get_neighbors(100)) == {1, 2, 3}
        assert graph.get_property(100, "Name") == "i1"
        assert graph.get_property(1, "Name") == "s1"


class TestSelectionPredicates:
    def test_comparison_filters_edges(self, toy_dblp):
        toy_dblp.create_table(
            "Publication", [("pid", "int"), ("year", "int")], primary_key="pid"
        )
        toy_dblp.insert("Publication", [(1, 2001), (2, 2015), (3, 2016)])
        query = """
        Nodes(ID, Name) :- Author(ID, Name).
        Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), Publication(P, Y), Y >= 2010.
        """
        gg = GraphGen(toy_dblp, preprocess=False)
        with large_output_factor(CONDENSE_ALL):
            recent = gg.extract(query, representation="exp")
            full = gg.extract(COAUTHOR_QUERY, representation="exp")
        assert recent.num_edges() < full.num_edges()
        # the p1 clique (year 2001) must be gone: a2 and a3 only co-authored p1
        assert not recent.exists_edge(2, 3)
        assert recent.exists_edge(1, 4)  # still connected through p2 (2015)
