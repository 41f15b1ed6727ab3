"""Tests for repro.relational.catalog (the planner's statistics source)."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table

from tests.conftest import large_output_factor


@pytest.fixture
def db() -> Database:
    db = Database("stats")
    db.create_table("R", [("k", "int"), ("v", "int")])
    db.create_table("S", [("k", "int"), ("w", "int")])
    db.insert("R", [(i % 5, i) for i in range(50)])       # k has 5 distinct values
    db.insert("S", [(i % 10, i) for i in range(100)])     # k has 10 distinct values
    return db


class TestColumnStats:
    def test_row_count_and_distinct(self, db):
        assert db.catalog.row_count("R") == 50
        assert db.catalog.n_distinct("R", "k") == 5
        assert db.catalog.n_distinct("R", "v") == 50

    def test_selectivity_definition(self, db):
        # Table 6 definition: distinct / rows
        assert db.catalog.selectivity("R", "k") == pytest.approx(5 / 50)
        assert db.catalog.selectivity("S", "k") == pytest.approx(10 / 100)

    def test_avg_rows_per_value(self, db):
        stats = db.catalog.column_stats("R", "k")
        assert stats.avg_rows_per_value == pytest.approx(10.0)

    def test_unknown_column_raises(self, db):
        with pytest.raises(SchemaError):
            db.catalog.column_stats("R", "nope")

    def test_refresh_after_insert(self, db):
        db.insert("R", [(99, 999)])
        assert db.catalog.n_distinct("R", "k") == 6


class TestJoinEstimates:
    def test_join_size_sums_per_value_count_products(self, db):
        # every k of R (10 rows each) meets 10 rows of S: 5 * 10 * 10
        assert db.catalog.join_size("R", "k", "S", "k") == 500
        # skew is counted, not averaged away: 3 * 3 + 1 * 1 rows, not 4 * 4 / 2
        db.create_table("E", [("a", "int")])
        db.insert("E", [(1,), (1,), (1,), (2,)])
        assert db.catalog.join_size("E", "a", "E", "a") == 10
        assert db.catalog.join_size("E", "a", "R", "k") == 3 * 10 + 10

    def test_self_join_reads_one_counter(self, db):
        assert db.catalog.join_size("R", "k", "R", "k") == 5 * 10 * 10
        assert db.catalog.value_counts("R", "k") == {k: 10 for k in range(5)}
        assert db.catalog.value_counts("R", "k") is db.catalog.value_counts("R", "k")

    def test_null_joins_null(self):
        db = Database("nulls")
        db.add_table(Table(TableSchema("E", [Column("a", "int", nullable=True)])))
        db.insert("E", [(None,), (None,), (1,)])
        assert db.catalog.join_size("E", "a", "E", "a") == 2 * 2 + 1
        assert db.catalog.n_distinct("E", "a") == 2

    def test_large_output_join_decision(self, db):
        # threshold = 2 * (50 + 100) = 300 < 500 -> large output
        assert db.catalog.large_output_threshold("R", "S") == 300
        assert db.catalog.is_large_output_join("R", "k", "S", "k")
        # a very permissive factor flips the decision
        with large_output_factor(10):
            assert not db.catalog.is_large_output_join("R", "k", "S", "k")

    def test_key_like_join_is_small(self, db):
        # joining on R.v (all distinct) is essentially a key join
        assert not db.catalog.is_large_output_join("R", "v", "S", "w")

    def test_empty_table_estimate(self):
        db = Database("empty")
        db.create_table("E", [("a", "int")])
        db.create_table("F", [("a", "int")])
        assert db.catalog.join_size("E", "a", "F", "a") == 0
        assert not db.catalog.is_large_output_join("E", "a", "F", "a")
        stats = db.catalog.column_stats("E", "a")
        assert stats.selectivity == 0.0
        assert stats.avg_rows_per_value == 0.0

    def test_counts_follow_a_table_mutated_directly(self, db):
        """Counts are keyed on the database version, so rows appended through
        the table (no ``Database.insert``, no ``analyze()``) are seen."""
        assert db.catalog.join_size("R", "k", "R", "k") == 500
        db.table("R").insert_many([(0, 1000 + i) for i in range(10)])
        assert db.catalog.row_count("R") == 60
        assert db.catalog.join_size("R", "k", "R", "k") == 4 * 10 * 10 + 20 * 20
        db.table("R").clear()
        assert db.catalog.n_distinct("R", "k") == 0

    def test_summary_contains_all_tables(self, db):
        summary = db.catalog.summary()
        assert summary["R"]["__rows__"] == 50
        assert summary["S"]["k"] == 10
