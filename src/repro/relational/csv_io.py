"""CSV import / export for tables and whole databases.

Real GraphGen deployments point at an existing PostgreSQL database; this
reproduction works on in-memory :class:`~repro.relational.database.Database`
objects, so users need a convenient way to get their data *into* one.  CSV is
the lowest-common-denominator interchange format (every RDBMS can ``COPY`` to
it), so this module provides:

* :func:`write_table_csv` / :func:`read_table_csv` — one table per file, with
  a header row; values are parsed back according to the table schema (or by
  type inference when no schema is given);
* :func:`write_database` / :func:`read_database` — a directory with one CSV
  per table plus a ``_schema.json`` manifest preserving column types, primary
  keys and foreign keys;
* :func:`fingerprint_database` — a digest of exactly the bytes
  :func:`read_database` would parse, so work derived from a directory (a
  persisted snapshot) can be reused for as long as those bytes stay put.

The CLI (:mod:`repro.cli`) builds on these to run extraction queries directly
against a directory of CSV files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from repro.exceptions import SchemaError
from repro.relational.database import Database
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.table import Table

SCHEMA_MANIFEST = "_schema.json"

#: marker used to round-trip ``None`` values through CSV text
NULL_TOKEN = ""


# --------------------------------------------------------------------------- #
# value conversion
# --------------------------------------------------------------------------- #
def _render(value: Any) -> str:
    if value is None:
        return NULL_TOKEN
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_typed(text: str, column: Column) -> Any:
    if text == NULL_TOKEN and column.nullable:
        return None
    if column.type == "int":
        return int(text)
    if column.type == "float":
        return float(text)
    if column.type == "bool":
        return text.strip().lower() in ("1", "true", "yes")
    if column.type == "str":
        return text
    return infer_value(text)


def infer_value(text: str) -> Any:
    """Best-effort parse of a CSV cell: int, then float, then bool, then str."""
    stripped = text.strip()
    if stripped == NULL_TOKEN:
        return None
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    lowered = stripped.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def infer_column_type(values: Iterable[Any]) -> str:
    """Logical column type covering all inferred ``values``."""
    seen = {type(v) for v in values if v is not None}
    if not seen:
        return "any"
    if seen <= {int}:
        return "int"
    if seen <= {int, float}:
        return "float"
    if seen <= {bool}:
        return "bool"
    if seen <= {str}:
        return "str"
    return "any"


# --------------------------------------------------------------------------- #
# single table
# --------------------------------------------------------------------------- #
def write_table_csv(table: Table, path: str | Path) -> int:
    """Write ``table`` (header + rows) to ``path``; returns rows written."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.column_names)
        count = 0
        for row in table:
            writer.writerow([_render(v) for v in row])
            count += 1
    return count


def read_table_csv(
    path: str | Path,
    name: str | None = None,
    schema: TableSchema | None = None,
) -> Table:
    """Read a CSV file (header + rows) into a :class:`Table`.

    With ``schema``, the header must match the schema's column names and each
    value is parsed according to its column type.  Without one, column types
    are inferred from the data and every column is nullable.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV file (missing header row)") from None
        raw_rows = [row for row in reader if row]

    if schema is not None:
        if header != list(schema.column_names):
            raise SchemaError(
                f"{path}: header {header!r} does not match schema columns "
                f"{list(schema.column_names)!r}"
            )
        rows = [
            tuple(_parse_typed(cell, schema.column(column)) for cell, column in zip(row, header))
            for row in raw_rows
        ]
        return Table(schema, rows)

    inferred_rows = [tuple(infer_value(cell) for cell in row) for row in raw_rows]
    columns = []
    for position, column_name in enumerate(header):
        column_type = infer_column_type(row[position] for row in inferred_rows)
        columns.append(Column(column_name, column_type, nullable=True))
    table_name = name or path.stem
    return Table(TableSchema(name=table_name, columns=columns), inferred_rows)


# --------------------------------------------------------------------------- #
# whole database
# --------------------------------------------------------------------------- #
def _schema_to_manifest(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "type": c.type, "nullable": c.nullable} for c in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            {"column": fk.column, "ref_table": fk.ref_table, "ref_column": fk.ref_column}
            for fk in schema.foreign_keys
        ],
    }


def _schema_from_manifest(entry: dict[str, Any]) -> TableSchema:
    columns = [
        Column(c["name"], c.get("type", "any"), nullable=bool(c.get("nullable", False)))
        for c in entry["columns"]
    ]
    foreign_keys = tuple(
        ForeignKey(fk["column"], fk["ref_table"], fk["ref_column"])
        for fk in entry.get("foreign_keys", ())
    )
    return TableSchema(
        name=entry["name"],
        columns=columns,
        primary_key=tuple(entry.get("primary_key", ())),
        foreign_keys=foreign_keys,
    )


def write_database(db: Database, directory: str | Path) -> list[Path]:
    """Write every table of ``db`` as ``<directory>/<table>.csv`` plus the
    schema manifest; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    manifest = {"database": db.name, "tables": []}
    for table_name in db.table_names():
        table = db.table(table_name)
        path = directory / f"{table_name}.csv"
        write_table_csv(table, path)
        written.append(path)
        manifest["tables"].append(_schema_to_manifest(table.schema))
    manifest_path = directory / SCHEMA_MANIFEST
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    written.append(manifest_path)
    return written


def _read_manifest(directory: Path) -> dict[str, Any] | None:
    path = directory / SCHEMA_MANIFEST
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _default_name(directory: Path, manifest: dict[str, Any] | None) -> str:
    return (manifest or {}).get("database", directory.name)


def database_name(directory: str | Path) -> str:
    """The name :func:`read_database` gives the database in ``directory``
    (the manifest's, else the directory's) — without parsing any table."""
    directory = Path(directory)
    return _default_name(directory, _read_manifest(directory))


def fingerprint_database(directory: str | Path) -> str | None:
    """SHA-256 (hex) over the names and bytes of the files
    :func:`read_database` would read from ``directory``: the manifest plus
    the tables it lists, else every ``*.csv`` in sorted order.

    ``None`` when that set cannot be determined or read — the caller then
    loads the database the ordinary way, which reports what is wrong.
    """
    directory = Path(directory)
    digest = hashlib.sha256()
    try:
        manifest = _read_manifest(directory)
        if manifest is not None:
            paths = [directory / SCHEMA_MANIFEST]
            paths += [directory / f"{entry['name']}.csv" for entry in manifest["tables"]]
        else:
            paths = sorted(directory.glob("*.csv"))
        for path in paths:
            data = path.read_bytes()
            digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return digest.hexdigest()


def read_database(directory: str | Path, name: str | None = None) -> Database:
    """Load a database from a directory of CSV files.

    When ``_schema.json`` is present it drives table names, column types and
    key declarations; otherwise every ``*.csv`` file becomes a table with
    inferred column types.  The result carries the directory's
    :func:`fingerprint_database` as ``source_fingerprint`` (when the files
    did not change while they were being parsed) until it is mutated.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SchemaError(f"{directory} is not a directory")
    fingerprint = fingerprint_database(directory)
    manifest = _read_manifest(directory)
    db = Database(name or _default_name(directory, manifest))

    if manifest is not None:
        for entry in manifest["tables"]:
            schema = _schema_from_manifest(entry)
            csv_path = directory / f"{schema.name}.csv"
            if not csv_path.exists():
                raise SchemaError(f"manifest lists table {schema.name!r} but {csv_path} is missing")
            db.add_table(read_table_csv(csv_path, schema=schema))
    else:
        for csv_path in sorted(directory.glob("*.csv")):
            db.add_table(read_table_csv(csv_path))
        if not db.table_names():
            raise SchemaError(f"{directory} contains no CSV files")
    if fingerprint is not None and fingerprint == fingerprint_database(directory):
        db.stamp_source(fingerprint)
    return db
