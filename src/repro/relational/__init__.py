"""The relational substrate GraphGen extracts graphs from.

This package is a small, self-contained in-memory relational engine: schemas,
row-store tables, a statistics catalog, a conjunctive-query executor (hash
joins and ``DISTINCT``, the basic SQL the paper asks of the database), SQL
generation, and an optional ``sqlite3`` execution backend.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Column": "repro.relational.schema",
        "ForeignKey": "repro.relational.schema",
        "TableSchema": "repro.relational.schema",
        "make_schema": "repro.relational.schema",
        "Table": "repro.relational.table",
        "table_from_dicts": "repro.relational.table",
        "Catalog": "repro.relational.catalog",
        "ColumnStats": "repro.relational.catalog",
        "Database": "repro.relational.database",
        "Comparison": "repro.relational.query",
        "ConjunctiveQuery": "repro.relational.query",
        "Const": "repro.relational.query",
        "QueryAtom": "repro.relational.query",
        "evaluate": "repro.relational.query",
        "evaluate_bruteforce": "repro.relational.query",
        "render_value": "repro.relational.sql",
        "to_sql": "repro.relational.sql",
        "create_table_sql": "repro.relational.sql",
        "SQLiteBackend": "repro.relational.sqlite_backend",
        "CompiledEdgeRule": "repro.relational.pushdown",
        "PushdownProgram": "repro.relational.pushdown",
        "PushdownUnsupported": "repro.relational.pushdown",
        "compile_plan": "repro.relational.pushdown",
        "run_pushdown": "repro.relational.pushdown",
        "AGGREGATE_FUNCTIONS": "repro.relational.aggregates",
        "AggregateQuery": "repro.relational.aggregates",
        "AggregateSpec": "repro.relational.aggregates",
        "HavingClause": "repro.relational.aggregates",
        "aggregate_to_sql": "repro.relational.aggregates",
        "evaluate_aggregate": "repro.relational.aggregates",
        "group_by": "repro.relational.aggregates",
        "read_database": "repro.relational.csv_io",
        "read_table_csv": "repro.relational.csv_io",
        "write_database": "repro.relational.csv_io",
        "write_table_csv": "repro.relational.csv_io",
    },
)
