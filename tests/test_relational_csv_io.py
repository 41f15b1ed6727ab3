"""Tests for CSV import / export of tables and databases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SchemaError
from repro.relational.csv_io import (
    infer_column_type,
    infer_value,
    read_database,
    read_table_csv,
    write_database,
    write_table_csv,
)
from repro.relational.database import Database
from repro.relational.schema import make_schema
from repro.relational.table import Table


@pytest.fixture
def people_table() -> Table:
    schema = make_schema(
        "People", [("id", "int"), ("name", "str"), ("height", "float")], primary_key="id"
    )
    return Table(schema, [(1, "alice", 1.7), (2, "bob", 1.8), (3, "eve, jr", 1.6)])


@pytest.fixture
def small_db(people_table) -> Database:
    db = Database("smalldb")
    db.add_table(people_table)
    db.create_table(
        "Knows",
        [("src", "int"), ("dst", "int")],
        foreign_keys=[("src", "People", "id"), ("dst", "People", "id")],
    )
    db.insert("Knows", [(1, 2), (2, 3)])
    return db


class TestValueInference:
    @pytest.mark.parametrize(
        "text,expected",
        [("5", 5), ("5.5", 5.5), ("true", True), ("False", False), ("hello", "hello"), ("", None)],
    )
    def test_infer_value(self, text, expected):
        assert infer_value(text) == expected

    def test_infer_column_type(self):
        assert infer_column_type([1, 2, None]) == "int"
        assert infer_column_type([1, 2.5]) == "float"
        assert infer_column_type(["a", "b"]) == "str"
        assert infer_column_type([True, False]) == "bool"
        assert infer_column_type([1, "a"]) == "any"
        assert infer_column_type([None]) == "any"


class TestTableRoundTrip:
    def test_round_trip_with_schema(self, tmp_path, people_table):
        path = tmp_path / "people.csv"
        written = write_table_csv(people_table, path)
        assert written == 3
        loaded = read_table_csv(path, schema=people_table.schema)
        assert loaded.rows() == people_table.rows()

    def test_round_trip_with_inference(self, tmp_path, people_table):
        path = tmp_path / "people.csv"
        write_table_csv(people_table, path)
        loaded = read_table_csv(path)
        assert loaded.name == "people"
        assert loaded.num_rows == 3
        assert loaded.schema.column_names == ["id", "name", "height"]
        assert loaded.schema.column("id").type == "int"
        assert loaded.schema.column("height").type == "float"
        # commas inside quoted values survive the round trip
        assert loaded.rows()[2][1] == "eve, jr"

    def test_header_mismatch_raises(self, tmp_path, people_table):
        path = tmp_path / "people.csv"
        write_table_csv(people_table, path)
        wrong = make_schema("People", [("id", "int"), ("name", "str")])
        with pytest.raises(SchemaError):
            read_table_csv(path, schema=wrong)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_table_csv(path)

    def test_what_was_parsed_is_still_validated(self, tmp_path):
        """Parsed values are checked against the schema once, column by
        column; every malformed file still raises what it always raised."""
        from repro.relational.schema import Column, TableSchema

        path = tmp_path / "t.csv"
        typed = TableSchema("T", [Column("a", "int"), Column("b", "str", nullable=True)])
        untyped = TableSchema("T", [Column("a", "any"), Column("b", "str", nullable=True)])

        def read(text, schema=None):
            path.write_text(text, encoding="utf-8")
            return read_table_csv(path, schema=schema)

        # NULL in a non-nullable column
        with pytest.raises(SchemaError, match="value None is not valid for column T.a"):
            read("a,b\n1,x\n,y\n", untyped)
        with pytest.raises(ValueError, match="invalid literal for int"):
            read("a,b\n1,x\n,y\n", typed)
        # a non-int in an int column is refused while parsing
        with pytest.raises(ValueError, match="invalid literal for int"):
            read("a,b\n1,x\nzz,y\n", typed)
        # a short row; a long row when the columns are inferred
        with pytest.raises(SchemaError, match="row arity 1 does not match table 'T' arity 2"):
            read("a,b\n1,x\n2\n", typed)
        with pytest.raises(SchemaError, match="row arity 3 does not match table 't' arity 2"):
            read("a,b\n1,x\n2,y,z\n")
        with pytest.raises(SchemaError, match="does not match schema columns"):
            read("x,b\n1,y\n", typed)
        # and what was valid still loads, mixed types included
        assert read("a,b\n1,x\n2,\n", typed).rows() == [(1, "x"), (2, None)]
        mixed = read("a,b\n1,x\n2.5,\ntrue,7\n")
        assert mixed.rows() == [(1, "x"), (2.5, None), (True, 7)]
        assert [c.type for c in mixed.schema.columns] == ["any", "any"]

    def test_null_round_trip(self, tmp_path):
        from repro.relational.schema import Column, TableSchema

        schema = TableSchema(
            "T", [Column("a", "int", nullable=True), Column("b", "str", nullable=True)]
        )
        table = Table(schema, [(1, "x"), (None, None)])
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        loaded = read_table_csv(path, schema=schema)
        assert loaded.rows() == [(1, "x"), (None, None)]


class TestDatabaseRoundTrip:
    def test_round_trip_preserves_schema(self, tmp_path, small_db):
        paths = write_database(small_db, tmp_path / "db")
        assert any(p.name == "_schema.json" for p in paths)
        loaded = read_database(tmp_path / "db")
        assert loaded.name == "smalldb"
        assert loaded.table_names() == small_db.table_names()
        people = loaded.table("People")
        assert people.schema.primary_key == ("id",)
        assert people.rows() == small_db.table("People").rows()
        knows = loaded.table("Knows")
        assert len(knows.schema.foreign_keys) == 2

    def test_read_without_manifest(self, tmp_path, small_db):
        directory = tmp_path / "db"
        write_database(small_db, directory)
        (directory / "_schema.json").unlink()
        loaded = read_database(directory, name="inferred")
        assert loaded.name == "inferred"
        assert set(loaded.table_names()) == {"People", "Knows"}
        assert loaded.table("Knows").num_rows == 2

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SchemaError):
            read_database(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        directory = tmp_path / "emptydir"
        directory.mkdir()
        with pytest.raises(SchemaError):
            read_database(directory)

    def test_manifest_with_missing_csv_raises(self, tmp_path, small_db):
        directory = tmp_path / "db"
        write_database(small_db, directory)
        (directory / "Knows.csv").unlink()
        with pytest.raises(SchemaError):
            read_database(directory)

    def test_extraction_works_on_reloaded_database(self, tmp_path, small_db):
        """A reloaded database supports the full extraction pipeline."""
        from repro.core import GraphGen

        directory = tmp_path / "db"
        write_database(small_db, directory)
        loaded = read_database(directory)
        graph = GraphGen(loaded).extract(
            """
            Nodes(ID, Name, H) :- People(ID, Name, H).
            Edges(ID1, ID2) :- Knows(ID1, ID2).
            """,
            representation="exp",
        )
        assert graph.exists_edge(1, 2)
        assert graph.exists_edge(2, 3)


class TestPropertyRoundTrip:
    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.text(
                alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=12,
            )),
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_int_str_rows_round_trip(self, tmp_path_factory, rows):
        schema = make_schema("T", [("a", "int"), ("b", "str")])
        table = Table(schema, rows)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_table_csv(table, path)
        loaded = read_table_csv(path, schema=schema)
        assert loaded.rows() == table.rows()
