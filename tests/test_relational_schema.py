"""Tests for repro.relational.schema."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import Column, ForeignKey, TableSchema, make_schema


class TestColumn:
    def test_valid_column(self):
        column = Column("name", "str")
        assert column.name == "name"
        assert column.accepts("alice")

    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            Column("x", "varchar")

    def test_rejects_bad_name(self):
        with pytest.raises(SchemaError):
            Column("bad name", "int")
        with pytest.raises(SchemaError):
            Column("", "int")

    def test_int_column_rejects_string_and_bool(self):
        column = Column("age", "int")
        assert column.accepts(5)
        assert not column.accepts("5")
        assert not column.accepts(True)

    def test_float_accepts_int(self):
        assert Column("x", "float").accepts(3)
        assert Column("x", "float").accepts(3.5)

    def test_nullable(self):
        assert not Column("x", "int").accepts(None)
        assert Column("x", "int", nullable=True).accepts(None)

    def test_any_type_accepts_everything(self):
        column = Column("x", "any")
        assert column.accepts(object())
        assert column.accepts(3)

    def test_sqlite_affinity(self):
        assert Column("x", "int").sqlite_type == "INTEGER"
        assert Column("x", "str").sqlite_type == "TEXT"


class TestTableSchema:
    def test_column_index_and_lookup(self):
        schema = make_schema("T", [("a", "int"), ("b", "str")], primary_key="a")
        assert schema.column_index("b") == 1
        assert schema.column("a").type == "int"
        assert schema.has_column("a")
        assert not schema.has_column("zzz")

    def test_unknown_column_raises(self):
        schema = make_schema("T", ["a"])
        with pytest.raises(SchemaError):
            schema.column_index("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            make_schema("T", ["a", "a"])

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            make_schema("T", [])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema("T", ["a"], primary_key="b")

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema("T", ["a"], foreign_keys=[("b", "Other", "id")])

    def test_is_key(self):
        schema = make_schema("T", ["a", "b"], primary_key="a")
        assert schema.is_key("a")
        assert not schema.is_key("b")

    def test_foreign_key_for(self):
        schema = make_schema("T", ["a", "b"], foreign_keys=[("b", "Other", "id")])
        fk = schema.foreign_key_for("b")
        assert fk == ForeignKey("b", "Other", "id")
        assert schema.foreign_key_for("a") is None

    def test_validate_row_checks_arity(self):
        schema = make_schema("T", [("a", "int"), ("b", "str")])
        assert schema.validate_row([1, "x"]) == (1, "x")
        with pytest.raises(SchemaError):
            schema.validate_row([1])

    def test_validate_row_checks_types(self):
        schema = make_schema("T", [("a", "int")])
        with pytest.raises(SchemaError):
            schema.validate_row(["not-an-int"])

    def test_validate_rows_agrees_with_validate_row(self):
        """The per-column batch check accepts and rejects exactly what the
        per-cell check does, and a rejected batch raises the first offending
        row's error."""
        schema = TableSchema(
            "T", [Column("a", "int"), Column("b", "float", nullable=True), Column("c", "any")]
        )
        good = [[1, 2.5, "x"], (2, None, (1, 2)), (3, 4, 0)]
        assert schema.validate_rows(iter(good)) == [schema.validate_row(r) for r in good]
        assert schema.validate_rows([]) == []
        bad_batches = [
            [(1, 1.0, "x"), (True, 1.0, "x")],  # bool is not an int here
            [(1, 1.0, "x"), ("1", 1.0, "x")],
            [(1, 1.0, "x"), (None, 1.0, "x")],  # NULL in a non-nullable column
            [(1, 1.0, "x"), (2, 1.0, None)],  # ... even an `any` one
            [(1, 1.0, "x"), (2, "y", "x")],
            [(1, 1.0, "x"), (2, 1.0)],  # short row
            [(1, 1.0, "x", 9), (2, 1.0, "x")],  # long row
        ]
        for batch in bad_batches:
            with pytest.raises(SchemaError) as bulk:
                schema.validate_rows(batch)
            with pytest.raises(SchemaError) as single:
                for row in batch:
                    schema.validate_row(row)
            assert str(bulk.value) == str(single.value)

    def test_plain_string_columns_default_to_any(self):
        schema = make_schema("T", ["a", "b"])
        assert schema.column("a").type == "any"
        assert schema.arity == 2
