"""The in-memory relational database: a named collection of tables plus a
catalog.  This is the storage engine GraphGen extracts graphs from.

The class intentionally mirrors the small surface the paper needs from
PostgreSQL: table scans, projections with DISTINCT, equi-joins, and catalog
statistics.  A :class:`~repro.relational.sqlite_backend.SQLiteBackend` can be
attached for executing generated SQL against stdlib ``sqlite3`` instead.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import SchemaError
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema, make_schema
from repro.relational.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.sqlite_backend import SQLiteBackend


class Database:
    """A named collection of :class:`~repro.relational.table.Table` objects.

    Beside its tables the database keeps, under one lock, two things
    extraction reuses for as long as it lives: the one SQLite mirror
    (:meth:`sqlite_backend`) and an *extraction memo* per (parsed spec,
    extraction options) key (:meth:`recall_extraction` /
    :meth:`keep_extraction`).  The memo entry is what the last extraction
    of that key left for the next one to extend when the tables it read
    only grew (:meth:`repro.core.graphgen.GraphGen.extract_with_report`);
    it holds the last graph handed out for that key, so that graph stays
    alive until a newer extraction of the key replaces it or the database
    goes.  The database never looks inside an entry.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._catalog = Catalog(self)
        # structural version, bumped when tables are added/dropped; combined
        # with the per-table data versions it identifies the database state
        self._structure_version = 0
        self._sqlite_cache: "SQLiteBackend | None" = None
        #: extraction memo: (spec, options) key -> what extended it last
        self._extractions: dict[Any, Any] = {}
        # guards the mirror's creation and the extraction memo
        self._guard = threading.Lock()
        # (version, fingerprint) stamped by csv_io.read_database
        self._source_stamp: tuple[tuple[int, ...], str] | None = None

    # ------------------------------------------------------------------ #
    # table management
    # ------------------------------------------------------------------ #
    def create_table(
        self,
        name: str,
        columns: Iterable[tuple[str, str] | str],
        primary_key: Sequence[str] | str | None = None,
        foreign_keys: Iterable[tuple[str, str, str]] = (),
    ) -> Table:
        """Create an empty table from a lightweight column spec."""
        schema = make_schema(name, columns, primary_key, foreign_keys)
        return self.add_table(Table(schema))

    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists in database {self.name!r}")
        self._tables[table.name] = table
        self._structure_version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no table {name!r} in database {self.name!r}")
        del self._tables[name]
        self._structure_version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise SchemaError(
                f"no table {name!r} in database {self.name!r} (tables: {known})"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def schemas(self) -> list[TableSchema]:
        return [self._tables[name].schema for name in self.table_names()]

    # ------------------------------------------------------------------ #
    # data loading
    # ------------------------------------------------------------------ #
    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert into ``table``; returns the number of rows inserted."""
        return self.table(table).insert_many(rows)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def analyze(self) -> None:
        """Recompute catalog statistics (the equivalent of ``ANALYZE``)."""
        self._catalog.refresh()

    # ------------------------------------------------------------------ #
    # shared SQLite mirror
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> tuple[int, ...]:
        """A token identifying the current data state of the database.

        Changes whenever a table is added, dropped or mutated; what
        :attr:`source_fingerprint` is stamped against.  (The catalog keys
        its cached counts per table, on ``(Table, epoch, rows counted)``.)
        """
        return (self._structure_version,) + tuple(
            self._tables[name].data_version for name in self.table_names()
        )

    def stamp_source(self, fingerprint: str) -> None:
        """Record that the *current* contents were loaded from source bytes
        with this fingerprint (see :func:`repro.relational.csv_io.fingerprint_database`)."""
        self._source_stamp = (self.version, fingerprint)

    @property
    def source_fingerprint(self) -> str | None:
        """Fingerprint of the files this database was read from, while its
        contents are still exactly what was read; ``None`` once anything
        moved :attr:`version`, and for databases built in memory."""
        stamp = self._source_stamp
        return stamp[1] if stamp is not None and stamp[0] == self.version else None

    def sqlite_backend(self) -> "SQLiteBackend":
        """The database's one :class:`SQLiteBackend` mirror, brought up to date.

        Created on first use and kept for as long as the database lives:
        every call syncs it (:meth:`SQLiteBackend.load` — untouched tables
        are skipped, a table that only grew gets its new rows appended, a
        cleared, replaced, added or dropped table is redone alone), so
        repeated extractions share a single copy and a few appended rows
        cost a few inserted rows.  The connection is
        never replaced, so a thread still reading from the backend it was
        handed earlier is never left with a closed one; callers must not
        close it either.
        """
        from repro.relational.sqlite_backend import SQLiteBackend

        with self._guard:
            if self._sqlite_cache is None:
                self._sqlite_cache = SQLiteBackend(self)
        return self._sqlite_cache.load()

    # ------------------------------------------------------------------ #
    # extraction memo
    # ------------------------------------------------------------------ #
    def recall_extraction(self, key: Any) -> Any:
        """The memo entry kept under ``key``, or ``None``."""
        with self._guard:
            return self._extractions.get(key)

    def keep_extraction(self, key: Any, entry: Any) -> None:
        """Keep ``entry`` under ``key``, replacing what was there."""
        with self._guard:
            self._extractions[key] = entry

    # ------------------------------------------------------------------ #
    def total_rows(self) -> int:
        return sum(t.num_rows for t in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = ", ".join(f"{n}({t.num_rows})" for n, t in sorted(self._tables.items()))
        return f"Database({self.name!r}: {parts})"
