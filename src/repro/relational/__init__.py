"""The relational substrate GraphGen extracts graphs from.

This package is a small, self-contained in-memory relational engine: schemas,
row-store tables, a statistics catalog, a conjunctive-query executor (hash
joins and ``DISTINCT``, the basic SQL the paper asks of the database), SQL
generation, and an optional ``sqlite3`` execution backend.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.relational.schema": ("Column", "ForeignKey", "TableSchema", "make_schema"),
        "repro.relational.table": ("Table", "table_from_dicts"),
        "repro.relational.catalog": ("Catalog", "ColumnStats"),
        "repro.relational.database": ("Database",),
        "repro.relational.query": (
            "Comparison",
            "ConjunctiveQuery",
            "Const",
            "QueryAtom",
            "evaluate",
            "evaluate_bruteforce",
        ),
        "repro.relational.sql": ("render_value", "to_sql", "create_table_sql"),
        "repro.relational.sqlite_backend": ("SQLiteBackend",),
        "repro.relational.pushdown": (
            "CompiledEdgeRule",
            "PushdownProgram",
            "PushdownUnsupported",
            "compile_plan",
            "run_pushdown",
        ),
        "repro.relational.aggregates": (
            "AGGREGATE_FUNCTIONS",
            "AggregateQuery",
            "AggregateSpec",
            "HavingClause",
            "aggregate_to_sql",
            "evaluate_aggregate",
            "group_by",
        ),
        "repro.relational.csv_io": (
            "read_database",
            "read_table_csv",
            "write_database",
            "write_table_csv",
        ),
    },
)
