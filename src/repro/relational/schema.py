"""Relational schema objects: columns, table schemas and foreign keys.

The GraphGen planner only needs very light schema information — column names,
types (for SQL generation and value validation) and key / foreign-key
declarations (to recognise key–foreign-key joins, which are never
large-output).  The classes here are deliberately small, immutable value
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.exceptions import SchemaError

#: supported logical column types, mapped to the Python types accepted for
#: values and the SQLite affinity used by the sqlite backend.
COLUMN_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool, int),
    "any": (object,),
}

SQLITE_AFFINITY: dict[str, str] = {
    "int": "INTEGER",
    "float": "REAL",
    "str": "TEXT",
    "bool": "INTEGER",
    "any": "BLOB",
}


@dataclass(frozen=True)
class Column:
    """A single column declaration.

    Parameters
    ----------
    name:
        Column name; must be a valid identifier-ish string.
    type:
        One of ``int``, ``float``, ``str``, ``bool``, ``any``.
    nullable:
        Whether ``None`` is an accepted value.
    """

    name: str
    type: str = "any"
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                f"unknown column type {self.type!r} for column {self.name!r}; "
                f"expected one of {sorted(COLUMN_TYPES)}"
            )

    def accepts(self, value: Any) -> bool:
        """Return True if ``value`` is a legal value for this column."""
        return self.accepts_type(type(value))

    def accepts_type(self, value_type: type) -> bool:
        """Whether values of exactly ``value_type`` are legal here — all
        :meth:`accepts` ever looks at, so one answer covers a whole column."""
        if value_type is type(None):
            return self.nullable
        if self.type == "any":
            return True
        return issubclass(value_type, COLUMN_TYPES[self.type]) and not (
            self.type in ("int", "float") and issubclass(value_type, bool)
        )

    @property
    def sqlite_type(self) -> str:
        return SQLITE_AFFINITY[self.type]


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key declaration ``column -> ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class TableSchema:
    """Schema of a single table: ordered columns, primary key, foreign keys."""

    name: str
    columns: Sequence[Column]
    primary_key: tuple[str, ...] = ()
    foreign_keys: Sequence[ForeignKey] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}: {names}")
        if not names:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        for key_col in self.primary_key:
            if key_col not in names:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise SchemaError(
                    f"foreign key column {fk.column!r} not in table {self.name!r}"
                )
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Positional index of column ``name``; raises SchemaError if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column {name!r} in table {self.name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def is_key(self, column_name: str) -> bool:
        """True if ``column_name`` is (the only column of) the primary key."""
        return self.primary_key == (column_name,)

    def foreign_key_for(self, column_name: str) -> ForeignKey | None:
        for fk in self.foreign_keys:
            if fk.column == column_name:
                return fk
        return None

    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Check arity and column types of ``row``; return it as a tuple."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"arity {self.arity}: {row!r}"
            )
        for value, column in zip(row, self.columns):
            if not column.accepts(value):
                raise SchemaError(
                    f"value {value!r} is not valid for column "
                    f"{self.name}.{column.name} of type {column.type}"
                )
        return tuple(row)

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """:meth:`validate_row` for a batch, checked column by column.

        A column whose *set of value types* is acceptable holds only
        acceptable values, so a valid batch costs one pass per column instead
        of one ``accepts`` call per cell.  A batch that fails the check is
        validated row by row, which raises the first offending row's error.
        """
        batch = [tuple(row) for row in rows]
        if {len(row) for row in batch} <= {self.arity} and all(
            column.accepts_type(value_type)
            for position, column in enumerate(self.columns)
            for value_type in {type(row[position]) for row in batch}
        ):
            return batch
        return [self.validate_row(row) for row in batch]


def make_schema(
    name: str,
    columns: Iterable[tuple[str, str] | str],
    primary_key: Sequence[str] | str | None = None,
    foreign_keys: Iterable[tuple[str, str, str]] = (),
) -> TableSchema:
    """Convenience constructor used heavily by the dataset generators.

    ``columns`` may be plain names (type defaults to ``any``) or
    ``(name, type)`` pairs; ``foreign_keys`` are ``(column, ref_table,
    ref_column)`` triples.
    """
    cols = []
    for spec in columns:
        if isinstance(spec, str):
            cols.append(Column(spec))
        else:
            col_name, col_type = spec
            cols.append(Column(col_name, col_type))
    if primary_key is None:
        pk: tuple[str, ...] = ()
    elif isinstance(primary_key, str):
        pk = (primary_key,)
    else:
        pk = tuple(primary_key)
    fks = tuple(ForeignKey(c, t, rc) for c, t, rc in foreign_keys)
    return TableSchema(name=name, columns=cols, primary_key=pk, foreign_keys=fks)
