"""Tests for the dataset generators (schemas, determinism, extractability)."""

import pytest

from repro.core import GraphGen
from repro.datasets import (
    COACTOR_QUERY,
    COAUTHOR_QUERY,
    COENROLLMENT_QUERY,
    COPURCHASE_QUERY,
    GIRAPH_SPECS,
    INSTRUCTOR_STUDENT_BIPARTITE_QUERY,
    LAYERED_QUERY,
    LAYERED_SPECS,
    SINGLE_QUERY,
    SINGLE_SPECS,
    SMALL_SPECS,
    generate_condensed,
    generate_dblp,
    generate_from_spec,
    generate_giraph_dataset,
    generate_imdb,
    generate_layered,
    generate_single,
    generate_tpch,
    generate_univ,
    measured_selectivity,
)
from repro.dsl import parse, validate


class TestRelationalGenerators:
    def test_dblp_shape_and_determinism(self):
        db1 = generate_dblp(num_authors=50, num_publications=80, seed=5)
        db2 = generate_dblp(num_authors=50, num_publications=80, seed=5)
        assert db1.table("Author").num_rows == 50
        assert db1.table("Publication").num_rows == 80
        assert db1.table("AuthorPub").rows() == db2.table("AuthorPub").rows()
        # different seeds differ
        db3 = generate_dblp(num_authors=50, num_publications=80, seed=6)
        assert db1.table("AuthorPub").rows() != db3.table("AuthorPub").rows()

    def test_dblp_foreign_keys_resolve(self):
        db = generate_dblp(num_authors=30, num_publications=40, seed=1)
        authors = db.table("Author").distinct_values("id")
        for aid, pid in db.table("AuthorPub"):
            assert aid in authors
            assert 0 <= pid < 40

    def test_imdb_cast_sizes(self):
        db = generate_imdb(num_people=60, num_movies=10, mean_cast_size=8, seed=2)
        per_movie = {}
        for _, person, movie, _ in db.table("cast_info"):
            per_movie.setdefault(movie, set()).add(person)
        assert all(len(cast) >= 2 for cast in per_movie.values())

    def test_tpch_referential_integrity(self):
        db = generate_tpch(num_customers=40, num_parts=20, seed=3)
        orders = db.table("Orders").distinct_values("orderkey")
        for orderkey, partkey, suppkey in db.table("LineItem"):
            assert orderkey in orders
            assert 0 <= partkey < 20
            assert 0 <= suppkey < 30

    def test_univ_disjoint_id_ranges(self):
        db = generate_univ(num_students=20, num_instructors=5, num_courses=8, seed=4)
        students = db.table("Student").distinct_values("id")
        instructors = db.table("Instructor").distinct_values("id")
        assert not (students & instructors)

    @pytest.mark.parametrize(
        "generator, query",
        [
            (generate_dblp, COAUTHOR_QUERY),
            (generate_imdb, COACTOR_QUERY),
            (generate_tpch, COPURCHASE_QUERY),
            (generate_univ, COENROLLMENT_QUERY),
            (generate_univ, INSTRUCTOR_STUDENT_BIPARTITE_QUERY),
        ],
    )
    def test_bundled_queries_validate_and_extract(self, generator, query):
        db = generator(seed=0)
        report = validate(parse(query), db)
        assert report.case == 1
        graph = GraphGen(db).extract(query)
        assert graph.num_vertices() > 0


class TestSyntheticCondensedGenerator:
    def test_symmetric_single_layer(self):
        graph = generate_condensed(100, 30, 5, 2, seed=9)
        assert graph.num_real_nodes == 100
        assert graph.num_virtual_nodes >= 1
        assert graph.is_single_layer()
        assert graph.is_symmetric()

    def test_deterministic(self):
        a = generate_condensed(80, 20, 5, 2, seed=7)
        b = generate_condensed(80, 20, 5, 2, seed=7)
        assert a.num_condensed_edges == b.num_condensed_edges
        assert set(a.expanded_edges()) == set(b.expanded_edges())

    def test_mean_size_respected_roughly(self):
        graph = generate_condensed(200, 40, 8, 1, seed=3)
        sizes = [len(graph.virtual_out_real(v)) for v in graph.virtual_nodes()]
        assert 4 <= sum(sizes) / len(sizes) <= 14

    def test_small_specs_buildable(self):
        spec = SMALL_SPECS["synthetic_1"]
        graph = generate_from_spec(spec)
        assert graph.num_real_nodes == spec.num_real


class TestLargeDatasets:
    def test_layered_selectivities(self):
        spec = LAYERED_SPECS["layered_1"]
        db = generate_layered(spec)
        assert db.table("A").num_rows == spec.rows_a
        assert measured_selectivity(db, "A", "k") == pytest.approx(
            spec.selectivity_outer, rel=0.25
        )
        assert measured_selectivity(db, "B", "p") == pytest.approx(
            spec.selectivity_inner, rel=0.25
        )

    def test_layered_extraction_is_multilayer(self):
        db = generate_layered(LAYERED_SPECS["layered_1"])
        result = GraphGen(db).extract_with_report(LAYERED_QUERY)
        assert result.condensed.num_layers() >= 2

    def test_single_selectivity_and_extraction(self):
        spec = SINGLE_SPECS["single_1"]
        db = generate_single(spec)
        assert measured_selectivity(db, "R", "p") == pytest.approx(spec.selectivity, rel=0.25)
        result = GraphGen(db).extract_with_report(SINGLE_QUERY)
        assert result.condensed.is_single_layer()
        assert result.condensed.num_virtual_nodes > 0

    def test_single_2_denser_than_single_1(self):
        dense = generate_single(SINGLE_SPECS["single_2"])
        sparse = generate_single(SINGLE_SPECS["single_1"])
        dense_graph = GraphGen(dense).extract_with_report(SINGLE_QUERY).condensed
        sparse_graph = GraphGen(sparse).extract_with_report(SINGLE_QUERY).condensed
        dense_ratio = dense_graph.expanded_edge_count() / dense_graph.num_condensed_edges
        sparse_ratio = sparse_graph.expanded_edge_count() / sparse_graph.num_condensed_edges
        assert dense_ratio > sparse_ratio

    def test_giraph_specs(self):
        for name in GIRAPH_SPECS:
            graph = generate_giraph_dataset(name)
            assert graph.num_real_nodes == GIRAPH_SPECS[name].num_real
            assert graph.is_symmetric()
        # the S series grows the virtual-node size, the N series the node count
        s1 = generate_giraph_dataset("S1")
        s2 = generate_giraph_dataset("S2")
        assert s2.expanded_edge_count() > s1.expanded_edge_count()
        n1 = generate_giraph_dataset("N1")
        n2 = generate_giraph_dataset("N2")
        assert n2.num_real_nodes > n1.num_real_nodes
