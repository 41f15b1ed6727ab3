"""System catalog: table and column statistics, and the large-output rule.

GraphGen's planner decides whether a join is "large-output" (Section 4.2,
Step 2) from the join's output size against its inputs.  The paper estimates
that size from PostgreSQL's ``pg_stats.n_distinct``; this catalog knows it
exactly: every column's per-value counts are one pass over the stored rows,
and ``|L ⋈ R| = Σ_v count_L(v) · count_R(v)``.  The counts are cached with
the watermark they were read at — the ``Table`` object, its epoch and its
row count, the SQLite mirror's catch-up rule — so a table that only grew
since (through the database or directly) costs a pass over its new rows, a
cleared or replaced one a fresh pass; ``refresh()`` drops them explicitly
(``ANALYZE``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.database import Database
    from repro.relational.table import Table

#: the paper's constant: a join is large-output when its output exceeds this
#: many times its inputs' rows (read at call time, so tests may patch it)
LARGE_OUTPUT_FACTOR = 2


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of one table."""

    table: str
    column: str
    row_count: int
    n_distinct: int

    @property
    def selectivity(self) -> float:
        """``n_distinct / row_count`` — the paper's Table 6 definition."""
        if self.row_count == 0:
            return 0.0
        return self.n_distinct / self.row_count

    @property
    def avg_rows_per_value(self) -> float:
        """Average fan-out of a value of this column."""
        if self.n_distinct == 0:
            return 0.0
        return self.row_count / self.n_distinct


class Catalog:
    """Caching statistics provider over a :class:`~repro.relational.database.Database`."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        #: (table, column) -> (the Table, its epoch, rows counted, counts)
        self._value_counts: dict[tuple[str, str], tuple["Table", int, int, Counter[Any]]] = {}

    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Drop all cached statistics (recomputed lazily on next access)."""
        self._value_counts = {}

    def row_count(self, table: str) -> int:
        return self._db.table(table).num_rows

    def value_counts(self, table: str, column: str) -> Counter[Any]:
        """``value -> rows of table holding it in column`` (``None`` is a
        value, as in the python join executor); one pass, then a pass over
        the rows appended since for as long as the table only grows.  An
        extended count is a new ``Counter``: one handed out never changes."""
        tab = self._db.table(table)
        if not tab.schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {table!r}")
        key = (table, column)
        epoch, rows = tab.epoch, tab.num_rows
        cached = self._value_counts.get(key)
        if cached is not None and cached[0] is tab and cached[1] == epoch and cached[2] <= rows:
            done, counts = cached[2], cached[3]
            if done == rows:
                return counts
            counts = Counter(counts)
        else:
            done, counts = 0, Counter()
        index = tab.schema.column_index(column)
        counts.update([row[index] for row in tab.rows()[done:rows]])
        self._value_counts[key] = (tab, epoch, rows, counts)
        return counts

    def n_distinct(self, table: str, column: str) -> int:
        return len(self.value_counts(table, column))

    def column_stats(self, table: str, column: str) -> ColumnStats:
        return ColumnStats(
            table=table,
            column=column,
            row_count=self.row_count(table),
            n_distinct=self.n_distinct(table, column),
        )

    def selectivity(self, table: str, column: str) -> float:
        return self.column_stats(table, column).selectivity

    # ------------------------------------------------------------------ #
    def join_size(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> int:
        """Exact row count of the equi-join ``left_column = right_column``:
        ``Σ_v count_L(v) · count_R(v)``."""
        left = self.value_counts(left_table, left_column)
        if (left_table, left_column) == (right_table, right_column):
            return sum(count * count for count in left.values())
        right = self.value_counts(right_table, right_column)
        if len(left) > len(right):
            left, right = right, left
        return sum(count * right[value] for value, count in left.items())

    def large_output_threshold(self, left_table: str, right_table: str) -> float:
        """``LARGE_OUTPUT_FACTOR · (|L| + |R|)``: the output size a join must
        exceed to be cut into a virtual layer."""
        return LARGE_OUTPUT_FACTOR * (self.row_count(left_table) + self.row_count(right_table))

    def is_large_output_join(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> bool:
        """The paper's large-output-join test (Section 4.2, Step 2) on the
        exact output size: ``|L ⋈ R| > 2 · (|L| + |R|)``."""
        size = self.join_size(left_table, left_column, right_table, right_column)
        return size > self.large_output_threshold(left_table, right_table)

    def summary(self) -> dict[str, dict[str, int]]:
        """Row counts and per-column distinct counts for every table."""
        result: dict[str, dict[str, int]] = {}
        for name in self._db.table_names():
            table = self._db.table(name)
            result[name] = {"__rows__": table.num_rows}
            for column in table.schema.column_names:
                result[name][column] = self.n_distinct(name, column)
        return result
