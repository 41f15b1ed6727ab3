"""Conjunctive-query representation and evaluation.

GraphGen's extraction queries decompose into *conjunctive queries* (select–
project–join) over the base tables.  This module defines a small logical
representation — :class:`QueryAtom`, :class:`Comparison`,
:class:`ConjunctiveQuery` — and an executor that evaluates them with hash
joins over the in-memory tables.

Argument convention inside :class:`QueryAtom`:

* a ``str`` is a **variable** name,
* a :class:`Const` wraps a **constant** that must match exactly,
* ``None`` is an **anonymous** ("don't care") position.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.exceptions import QueryError
from repro.relational.database import Database

Row = tuple[Any, ...]

COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Const:
    """A constant argument inside a query atom."""

    value: Any


@dataclass(frozen=True)
class Comparison:
    """A selection predicate ``variable <op> value``."""

    variable: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, bound_value: Any) -> bool:
        try:
            return COMPARISON_OPS[self.op](bound_value, self.value)
        except TypeError:
            return False


@dataclass(frozen=True)
class QueryAtom:
    """One occurrence of a table in a conjunctive query body."""

    table: str
    arguments: tuple[Any, ...]

    def variables(self) -> list[str]:
        """Variable names appearing in this atom, in positional order."""
        return [a for a in self.arguments if isinstance(a, str)]

    def variable_positions(self) -> dict[str, list[int]]:
        positions: dict[str, list[int]] = {}
        for i, arg in enumerate(self.arguments):
            if isinstance(arg, str):
                positions.setdefault(arg, []).append(i)
        return positions


@dataclass
class ConjunctiveQuery:
    """``head(head_vars) :- atoms, comparisons`` with set (DISTINCT) semantics."""

    head_vars: Sequence[str]
    atoms: Sequence[QueryAtom]
    comparisons: Sequence[Comparison] = field(default_factory=tuple)
    name: str = "q"

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError(f"query {self.name!r} has no body atoms")
        body_vars = self.all_variables()
        for var in self.head_vars:
            if var not in body_vars:
                raise QueryError(
                    f"head variable {var!r} of query {self.name!r} does not "
                    f"appear in the body (unsafe rule)"
                )
        for comparison in self.comparisons:
            if comparison.variable not in body_vars:
                raise QueryError(
                    f"comparison on unbound variable {comparison.variable!r} "
                    f"in query {self.name!r}"
                )

    def all_variables(self) -> set[str]:
        result: set[str] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return result

    def tables(self) -> list[str]:
        return [atom.table for atom in self.atoms]


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #
def _atom_rows(
    db: Database, atom: QueryAtom, comparisons: Sequence[Comparison], since: int = 0
) -> tuple[list[str], list[Row]]:
    """Evaluate a single atom: returns (variable order, rows of bound values).

    Constants and repeated variables inside the atom act as selections;
    comparisons whose variable is bound by this atom are applied immediately.
    Only the table's rows from position ``since`` on are read.
    """
    table = db.table(atom.table)
    if len(atom.arguments) != table.schema.arity:
        raise QueryError(
            f"atom {atom.table}({', '.join(map(repr, atom.arguments))}) has arity "
            f"{len(atom.arguments)} but table {atom.table!r} has arity {table.schema.arity}"
        )
    var_positions = atom.variable_positions()
    var_order = list(var_positions)
    local_comparisons = [c for c in comparisons if c.variable in var_positions]

    rows: list[Row] = []
    for row in table.rows()[since:] if since else table:
        ok = True
        for i, arg in enumerate(atom.arguments):
            if isinstance(arg, Const) and row[i] != arg.value:
                ok = False
                break
        if not ok:
            continue
        # repeated variable inside the atom => positions must agree
        for positions in var_positions.values():
            if len(positions) > 1:
                first = row[positions[0]]
                if any(row[p] != first for p in positions[1:]):
                    ok = False
                    break
        if not ok:
            continue
        bound = tuple(row[var_positions[v][0]] for v in var_order)
        if all(c.evaluate(bound[var_order.index(c.variable)]) for c in local_comparisons):
            rows.append(bound)
    return var_order, rows


def _join(
    left_vars: list[str],
    left_rows: list[Row],
    right_vars: list[str],
    right_rows: list[Row],
) -> tuple[list[str], list[Row]]:
    """Natural hash join of two bound-variable relations."""
    shared = [v for v in left_vars if v in right_vars]
    right_only = [v for v in right_vars if v not in left_vars]
    out_vars = left_vars + right_only

    left_key_idx = [left_vars.index(v) for v in shared]
    right_key_idx = [right_vars.index(v) for v in shared]
    right_keep_idx = [right_vars.index(v) for v in right_only]

    build: dict[Row, list[Row]] = {}
    for row in right_rows:
        key = tuple(row[i] for i in right_key_idx)
        build.setdefault(key, []).append(tuple(row[i] for i in right_keep_idx))

    out_rows: list[Row] = []
    if not shared:
        # cartesian product
        for lrow in left_rows:
            for extra_rows in build.values():
                for extra in extra_rows:
                    out_rows.append(lrow + extra)
        return out_vars, out_rows

    for lrow in left_rows:
        key = tuple(lrow[i] for i in left_key_idx)
        for extra in build.get(key, ()):
            out_rows.append(lrow + extra)
    return out_vars, out_rows


def _greedy_join_order(query: ConjunctiveQuery) -> list[QueryAtom]:
    """Order atoms so that each one (when possible) shares a variable with the
    atoms already joined — avoids accidental cartesian products for connected
    queries while still handling disconnected ones."""
    remaining = list(query.atoms)
    ordered: list[QueryAtom] = [remaining.pop(0)]
    bound: set[str] = set(ordered[0].variables())
    while remaining:
        pick = None
        for atom in remaining:
            if bound.intersection(atom.variables()):
                pick = atom
                break
        if pick is None:
            pick = remaining[0]
        remaining.remove(pick)
        ordered.append(pick)
        bound.update(pick.variables())
    return ordered


def evaluate(
    db: Database, query: ConjunctiveQuery, use_distinct: bool = True, *, since: int = 0
) -> list[Row]:
    """Evaluate ``query`` against ``db`` and return the projected rows.

    Set semantics (``DISTINCT``) by default, matching the SQL GraphGen
    generates.  Comparisons whose variable is only bound after a join are
    applied as soon as the variable becomes available.

    ``since`` restricts a one-atom query to its table's rows from that
    position on — the rows appended after a reader's watermark.
    """
    if since and len(query.atoms) != 1:
        raise QueryError(f"query {query.name!r} reads {len(query.atoms)} atoms; since= needs one")
    ordered = _greedy_join_order(query)

    current_vars: list[str] = []
    current_rows: list[Row] = []
    pending = list(query.comparisons)

    for atom in ordered:
        atom_vars, atom_rows = _atom_rows(db, atom, query.comparisons, since)
        if not current_vars:
            current_vars, current_rows = atom_vars, atom_rows
        else:
            current_vars, current_rows = _join(current_vars, current_rows, atom_vars, atom_rows)
        # apply any comparison that has just become evaluable and was not
        # already applied inside _atom_rows
        still_pending = []
        for comparison in pending:
            if comparison.variable in current_vars:
                idx = current_vars.index(comparison.variable)
                current_rows = [r for r in current_rows if comparison.evaluate(r[idx])]
            else:
                still_pending.append(comparison)
        pending = still_pending

    head_idx = [current_vars.index(v) for v in query.head_vars]
    projected = (tuple(row[i] for i in head_idx) for row in current_rows)
    if use_distinct:
        # dict keys keep first-seen order
        return list(dict.fromkeys(projected))
    return list(projected)


def evaluate_bruteforce(db: Database, query: ConjunctiveQuery) -> set[Row]:
    """Reference evaluator: full cartesian product then filter.

    Exponential — used only in tests as an oracle on tiny databases.
    """
    tables = [db.table(atom.table) for atom in query.atoms]
    results: set[Row] = set()

    def recurse(atom_index: int, binding: dict[str, Any]) -> None:
        if atom_index == len(query.atoms):
            if all(c.evaluate(binding[c.variable]) for c in query.comparisons):
                results.add(tuple(binding[v] for v in query.head_vars))
            return
        atom = query.atoms[atom_index]
        for row in tables[atom_index]:
            local = dict(binding)
            ok = True
            for value, arg in zip(row, atom.arguments):
                if isinstance(arg, Const):
                    if value != arg.value:
                        ok = False
                        break
                elif isinstance(arg, str):
                    if arg in local and local[arg] != value:
                        ok = False
                        break
                    local[arg] = value
            if ok:
                recurse(atom_index + 1, local)

    recurse(0, {})
    return results
