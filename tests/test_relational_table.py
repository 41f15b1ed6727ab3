"""Tests for repro.relational.table."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import make_schema
from repro.relational.table import Table, table_from_dicts


@pytest.fixture
def people() -> Table:
    schema = make_schema("People", [("id", "int"), ("city", "str")], primary_key="id")
    return Table(schema, rows=[(1, "nyc"), (2, "sf"), (3, "nyc"), (4, "la")])


class TestTableBasics:
    def test_len_and_iteration(self, people):
        assert len(people) == 4
        assert list(people)[0] == (1, "nyc")
        assert people.row(2) == (3, "nyc")

    def test_insert_validates(self, people):
        with pytest.raises(SchemaError):
            people.insert((5,))
        with pytest.raises(SchemaError):
            people.insert(("x", "nyc"))
        people.insert((5, "sea"))
        assert people.num_rows == 5

    def test_insert_many_returns_count(self, people):
        assert people.insert_many([(10, "a"), (11, "b")]) == 2

    def test_insert_many_validates_and_inserts_nothing_on_failure(self, people):
        with pytest.raises(SchemaError, match="not valid for column People.id"):
            people.insert_many([(10, "a"), ("11", "b")])
        with pytest.raises(SchemaError, match="arity"):
            people.insert_many([(10, "a"), (11,)])
        assert people.num_rows == 4

    def test_clear(self, people):
        people.clear()
        assert people.num_rows == 0

    def test_epoch_moves_on_clear_only(self, people):
        epoch, version = people.epoch, people.data_version
        people.insert((5, "sea"))
        people.insert_many([(6, "sea")])
        assert people.epoch == epoch and people.data_version == version + 2
        people.clear()
        assert people.epoch == epoch + 1
        assert people.copy().epoch == 0  # a copy is another table


class TestColumnAccess:
    def test_column_values(self, people):
        assert people.column_values("city") == ["nyc", "sf", "nyc", "la"]

    def test_distinct(self, people):
        assert people.distinct_values("city") == {"nyc", "sf", "la"}
        assert people.distinct_count("city") == 3

    def test_project(self, people):
        assert people.project(["city"]) == [("nyc",), ("sf",), ("nyc",), ("la",)]
        assert people.project(["city"], distinct=True) == [("nyc",), ("sf",), ("la",)]
        assert people.project(["city", "id"])[0] == ("nyc", 1)

    def test_unknown_column_raises(self, people):
        with pytest.raises(SchemaError):
            people.column_values("nope")


class TestIndexes:
    def test_index_and_lookup(self, people):
        index = people.index_on("city")
        assert sorted(index["nyc"]) == [0, 2]
        assert people.lookup("city", "nyc") == [(1, "nyc"), (3, "nyc")]
        assert people.lookup("city", "tokyo") == []

    def test_index_invalidated_on_insert(self, people):
        people.index_on("city")
        people.insert((9, "tokyo"))
        assert people.lookup("city", "tokyo") == [(9, "tokyo")]

    def test_copy_is_independent(self, people):
        clone = people.copy("People2")
        clone.insert((99, "berlin"))
        assert people.num_rows == 4
        assert clone.num_rows == 5
        assert clone.name == "People2"


class TestTableFromDicts:
    def test_builds_rows_in_column_order(self):
        schema = make_schema("T", [("a", "int"), ("b", "str")])
        table = table_from_dicts(schema, [{"b": "x", "a": 1}, {"a": 2, "b": "y"}])
        assert table.rows() == [(1, "x"), (2, "y")]

    def test_missing_required_column_raises(self):
        schema = make_schema("T", [("a", "int"), ("b", "str")])
        with pytest.raises(SchemaError):
            table_from_dicts(schema, [{"a": 1}])

    def test_missing_nullable_column_becomes_none(self):
        schema = make_schema("T", [("a", "int")])
        schema = make_schema("T", [("a", "int")])
        from repro.relational.schema import Column, TableSchema

        schema = TableSchema("T", [Column("a", "int"), Column("b", "str", nullable=True)])
        table = table_from_dicts(schema, [{"a": 1}])
        assert table.rows() == [(1, None)]
