"""In-memory table storage.

Rows are stored as tuples in a list (row store).  Tables support bulk insert,
iteration, per-column value access, and on-demand hash indexes for point
lookups (:meth:`Table.lookup`).  Indexes are invalidated automatically on
mutation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.exceptions import SchemaError
from repro.relational.schema import TableSchema


class Table:
    """A single relational table: a schema plus a list of row tuples."""

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[Any]] | None = None):
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        #: bumped on every mutation so callers (e.g. the Database's cached
        #: SQLite mirror) can detect staleness without hashing rows
        self._version = 0
        #: bumped only when rows are discarded (:meth:`clear`): with the row
        #: count it tells "only grew since I looked" from "was rewritten"
        self._epoch = 0
        if rows is not None:
            self.insert_many(rows)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def rows(self) -> list[tuple[Any, ...]]:
        """The underlying row list (do not mutate)."""
        return self._rows

    def row(self, index: int) -> tuple[Any, ...]:
        return self._rows[index]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, row: Sequence[Any]) -> None:
        """Insert a single row after validating it against the schema."""
        self._rows.append(self.schema.validate_row(row))
        self._indexes.clear()
        self._version += 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; returns the number inserted."""
        validated = self.schema.validate_rows(rows)
        self._rows.extend(validated)
        self._indexes.clear()
        self._version += 1
        return len(validated)

    def clear(self) -> None:
        self._rows.clear()
        self._indexes.clear()
        self._version += 1
        self._epoch += 1

    @property
    def data_version(self) -> int:
        """Monotonic counter incremented by every mutation of this table."""
        return self._version

    @property
    def epoch(self) -> int:
        """Incremented by :meth:`clear` and by nothing else.  Rows are only
        ever appended between two clears, so a reader that remembers
        ``(epoch, num_rows)`` can catch up from ``rows()[num_rows:]`` while
        the epoch stands and must start over once it moved."""
        return self._epoch

    # ------------------------------------------------------------------ #
    # column access & statistics support
    # ------------------------------------------------------------------ #
    def column_values(self, column: str) -> list[Any]:
        """All values (with repetition) of ``column``."""
        idx = self.schema.column_index(column)
        return [row[idx] for row in self._rows]

    def distinct_values(self, column: str) -> set[Any]:
        idx = self.schema.column_index(column)
        return {row[idx] for row in self._rows}

    def distinct_count(self, column: str) -> int:
        """Number of distinct values in ``column`` (the planner's ``d``)."""
        return len(self.distinct_values(column))

    def project(self, columns: Sequence[str], distinct: bool = False) -> list[tuple[Any, ...]]:
        """Project onto ``columns`` preserving row order; optionally dedupe."""
        idxs = [self.schema.column_index(c) for c in columns]
        projected = [tuple(row[i] for i in idxs) for row in self._rows]
        if not distinct:
            return projected
        seen: set[tuple[Any, ...]] = set()
        out: list[tuple[Any, ...]] = []
        for item in projected:
            if item not in seen:
                seen.add(item)
                out.append(item)
        return out

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    def index_on(self, column: str) -> dict[Any, list[int]]:
        """Hash index ``value -> [row positions]``, built lazily and cached."""
        if column not in self._indexes:
            idx = self.schema.column_index(column)
            index: dict[Any, list[int]] = {}
            for pos, row in enumerate(self._rows):
                index.setdefault(row[idx], []).append(pos)
            self._indexes[column] = index
        return self._indexes[column]

    def lookup(self, column: str, value: Any) -> list[tuple[Any, ...]]:
        """All rows whose ``column`` equals ``value`` (uses the hash index)."""
        positions = self.index_on(column).get(value, [])
        return [self._rows[p] for p in positions]

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Table":
        """Shallow copy (rows are immutable tuples, so this is safe)."""
        schema = self.schema
        if name is not None:
            schema = TableSchema(
                name=name,
                columns=schema.columns,
                primary_key=schema.primary_key,
                foreign_keys=schema.foreign_keys,
            )
        clone = Table(schema)
        clone._rows = list(self._rows)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table({self.name!r}, rows={self.num_rows})"


def table_from_dicts(schema: TableSchema, records: Iterable[dict[str, Any]]) -> Table:
    """Build a table from dict records keyed by column name.

    Missing keys raise :class:`SchemaError` unless the column is nullable, in
    which case ``None`` is stored.
    """
    table = Table(schema)
    names = schema.column_names
    rows = []
    for record in records:
        row = []
        for name in names:
            if name in record:
                row.append(record[name])
            elif schema.column(name).nullable:
                row.append(None)
            else:
                raise SchemaError(
                    f"record {record!r} is missing required column {name!r} "
                    f"of table {schema.name!r}"
                )
        rows.append(row)
    table.insert_many(rows)
    return table
