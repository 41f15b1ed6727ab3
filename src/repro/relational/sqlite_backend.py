"""SQLite execution backend.

The paper's GraphGen sits on top of PostgreSQL but "requires only basic SQL
support from the underlying storage engine".  This backend mirrors a
:class:`~repro.relational.database.Database` into an in-memory ``sqlite3``
database (Python standard library) and executes the SQL that
:mod:`repro.relational.sql` generates — demonstrating that the extraction
pipeline runs unchanged on a real SQL engine, and acting as a cross-check for
the pure-Python executor.

The mirror *follows* the database instead of being rebuilt: :meth:`load`
remembers, per table, which :class:`~repro.relational.table.Table` object it
copied, at which :attr:`~repro.relational.table.Table.epoch` and how many
rows, so the next :meth:`load` skips an untouched table, inserts only the
appended tail of one that grew and reloads just the table that was cleared,
replaced, added or dropped.

One connection serves every thread (the analysis service shares one
``Database``), serialised by one re-entrant lock.  The lock is held across a
:meth:`load` and across a :meth:`read_all`, so a reader's statements all see
the same table state and a sync never runs under a statement; it is never
held while a caller builds a graph from the rows it got.  The mirror keeps no
per-extraction state: extraction engines only ever ``SELECT`` from it.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Iterable, Sequence

from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.sql import create_table_sql, to_sql
from repro.relational.table import Table

Row = tuple[Any, ...]


class SQLiteBackend:
    """Mirror a :class:`Database` into an in-memory SQLite database."""

    def __init__(self, database: Database) -> None:
        self._db = database
        self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        self._lock = threading.RLock()
        #: table name -> (the Table mirrored, its epoch, rows mirrored so far);
        #: ``None`` until the first load
        self._mirrored: dict[str, tuple[Table, int, int]] | None = None

    # ------------------------------------------------------------------ #
    def load(self) -> "SQLiteBackend":
        """Bring the mirror to the database's current contents.  Idempotent:
        a table that did not change since the last load costs nothing."""
        with self._lock:
            mirrored = self._mirrored or {}
            tables = {name: self._db.table(name) for name in self._db.table_names()}
            cursor = self._conn.cursor()
            try:
                for name in mirrored.keys() - tables.keys():
                    cursor.execute(f"DROP TABLE {name}")
                    del mirrored[name]
                for name, table in tables.items():
                    known, epoch, done = mirrored.pop(name, (None, 0, 0))
                    current = table.epoch
                    if known is not table or epoch != current:
                        done = 0
                        cursor.execute(f"DROP TABLE IF EXISTS {name}")
                        cursor.execute(create_table_sql(self._db, name))
                    # one slice = one consistent view of a list that another
                    # thread may be appending to
                    tail = table.rows()[done:]
                    if tail:
                        placeholders = ", ".join("?" * table.schema.arity)
                        cursor.executemany(f"INSERT INTO {name} VALUES ({placeholders})", tail)
                    self._conn.commit()
                    mirrored[name] = (table, current, done + len(tail))
            except (sqlite3.Error, OverflowError) as exc:
                # the table that failed was popped above: the next load
                # starts it over, the ones before it are committed
                self._conn.rollback()
                raise QueryError(f"cannot mirror table {name!r} into sqlite: {exc}") from exc
            self._mirrored = mirrored
        return self

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteBackend":
        return self.load()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def execute_sql(self, sql: str, parameters: Iterable[Any] = ()) -> list[Row]:
        """Run raw SQL and return all rows."""
        with self._lock:
            if self._mirrored is None:
                self.load()
            try:
                return self._conn.execute(sql, tuple(parameters)).fetchall()
            except sqlite3.Error as exc:
                raise QueryError(f"sqlite error for {sql!r}: {exc}") from exc

    def read_all(self, statements: Iterable[tuple[str, Sequence[Any]]]) -> list[list[Row]]:
        """Run ``(sql, parameters)`` statements under one hold of the lock,
        so that all of them read the same table state: a concurrent
        :meth:`load` waits until the last one returned."""
        with self._lock:
            return [self.execute_sql(sql, parameters) for sql, parameters in statements]

    def evaluate(self, query: ConjunctiveQuery, use_distinct: bool = True) -> list[Row]:
        """Evaluate a conjunctive query by generating SQL and executing it.

        Constant and comparison values are passed via ``sqlite3`` parameter
        binding, never inlined, so quotes, NUL bytes and floats round-trip.
        """
        parameters: list[Any] = []
        sql = to_sql(self._db, query, use_distinct=use_distinct, parameters=parameters)
        return self.execute_sql(sql, parameters)

    def row_count(self, table: str) -> int:
        rows = self.execute_sql(f"SELECT COUNT(*) FROM {table}")
        return int(rows[0][0])

    def n_distinct(self, table: str, column: str) -> int:
        """Distinct-value count computed by SQLite (catalog cross-check)."""
        rows = self.execute_sql(f"SELECT COUNT(DISTINCT {column}) FROM {table}")
        return int(rows[0][0])
