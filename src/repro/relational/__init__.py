"""The relational substrate GraphGen extracts graphs from.

This package is a small, self-contained in-memory relational engine: schemas,
row-store tables, a statistics catalog, physical operators, a conjunctive-
query executor, SQL generation, and an optional ``sqlite3`` execution backend.
"""

from repro.relational.schema import Column, ForeignKey, TableSchema, make_schema
from repro.relational.table import Table, table_from_dicts
from repro.relational.catalog import Catalog, ColumnStats
from repro.relational.database import Database
from repro.relational.query import (
    Comparison,
    ConjunctiveQuery,
    Const,
    QueryAtom,
    evaluate,
    evaluate_bruteforce,
)
from repro.relational.sql import render_value, to_sql, create_table_sql
from repro.relational.sqlite_backend import SQLiteBackend
from repro.relational.pushdown import (
    CompiledEdgeRule,
    PushdownProgram,
    PushdownUnsupported,
    compile_plan,
    run_pushdown,
)
from repro.relational.aggregates import (
    AGGREGATE_FUNCTIONS,
    AggregateQuery,
    AggregateSpec,
    HavingClause,
    aggregate_to_sql,
    evaluate_aggregate,
    group_by,
)
from repro.relational.csv_io import (
    read_database,
    read_table_csv,
    write_database,
    write_table_csv,
)

__all__ = [
    "Column",
    "ForeignKey",
    "TableSchema",
    "make_schema",
    "Table",
    "table_from_dicts",
    "Catalog",
    "ColumnStats",
    "Database",
    "Comparison",
    "ConjunctiveQuery",
    "Const",
    "QueryAtom",
    "evaluate",
    "evaluate_bruteforce",
    "render_value",
    "to_sql",
    "create_table_sql",
    "SQLiteBackend",
    "CompiledEdgeRule",
    "PushdownProgram",
    "PushdownUnsupported",
    "compile_plan",
    "run_pushdown",
    "AGGREGATE_FUNCTIONS",
    "AggregateQuery",
    "AggregateSpec",
    "HavingClause",
    "aggregate_to_sql",
    "evaluate_aggregate",
    "group_by",
    "read_database",
    "read_table_csv",
    "write_database",
    "write_table_csv",
]
