"""One-pass SQL extraction: the database evaluates the small-output queries
once each, and the extractor's one loader wires their rows (paper §4.2,
Table 1).

An :class:`~repro.core.planner.ExtractionPlan` lowers to a flat list of
``SELECT`` statements — one per Nodes rule and, per Edges rule, one per
*distinct* segment / full / aggregate query:

* a query's identity is its generated SQL text with the two output columns
  aliased ``c0, c1``, plus its bound parameters.  A segment whose text equals
  an earlier segment's of the same rule reads that scan's rows again; one
  whose text equals it once the query is written from its other end (the two
  head variables swapped, the atoms in reverse order) — both halves of every
  symmetric co-occurrence rule ``R(ID1, P), R(ID2, P)`` — reads them as
  ``(c1, c0)``.  Only equal texts share; anything else simply runs;
* all statements of a plan are fetched under one hold of the mirror's lock
  (:meth:`~repro.relational.sqlite_backend.SQLiteBackend.read_all`), so the
  graph is an extraction of one table state, and nothing is written to the
  mirror — no temp table, no index, nothing to clean up;
* :func:`run_pushdown` is a row source and nothing more: per plan query it
  hands back the scan's rows and whether they are read swapped.  The
  extractor's loader (:meth:`repro.core.extractor.Extractor._load`) wires
  them the same way it wires the ``python`` and ``sqlite`` engines' rows,
  taking chain boundaries, endpoint sides and edge-property names from the
  plan.  Endpoint identity is therefore Python equality on every engine — a
  ``NULL`` join value is the key ``None``.

Numbering IDs inside SQL instead (an ID-map temp table, a window-function
rank per boundary, three-way joins back to both, sorted output) lost to this
at every size measured: each extra statement re-reads rows that two dict
lookups encode while they are being loaded anyway.

Anything that cannot be lowered or executed raises
:class:`PushdownUnsupported`; the caller falls back to the ``python`` engine
and records a note, never a wrong graph.  A malformed plan is not one of
those: :meth:`~repro.core.planner.EdgePlan.queries` raises
:class:`~repro.exceptions.ExtractionError` for it on every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import QueryError
from repro.relational.aggregates import AggregateQuery, aggregate_to_sql
from repro.relational.database import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.sql import to_sql

if TYPE_CHECKING:  # pragma: no cover - core imports us; type-only back-ref
    from repro.core.planner import EdgePlan, ExtractionPlan

#: output aliases of every edge query: what makes two texts comparable
EDGE_COLUMNS = ("c0", "c1")

#: one plan query's rows, and whether its two endpoint columns are swapped
SegmentRows = tuple[list[tuple[Any, ...]], bool]


class PushdownUnsupported(Exception):
    """The plan (or the data) cannot be executed by the pushdown engine."""


@dataclass
class Statement:
    """One ``SELECT`` of a compiled program."""

    sql: str
    params: tuple[Any, ...]
    #: the same statement with its literals inline (``GraphGen.explain``)
    display: str

    @property
    def key(self) -> tuple[str, tuple[Any, ...]]:
        """What makes two statements the same query."""
        return self.sql, self.params


@dataclass
class CompiledSegment:
    """Where one segment's rows come from."""

    #: index into the rule's ``scans``
    scan: int
    #: the rows are the scan's with the two columns swapped
    swapped: bool


@dataclass
class CompiledEdgeRule:
    """One Edges rule: its distinct scans and the segments reading them.
    A full or aggregate rule is one scan read by one real → real segment."""

    label: str
    scans: list[Statement]
    segments: list[CompiledSegment]


@dataclass
class PushdownProgram:
    """A compiled plan: the Nodes statements plus one rule program each."""

    node_statements: list[Statement]
    rules: list[CompiledEdgeRule]

    def statements(self) -> list[Statement]:
        """Every statement, in the order their results are consumed."""
        return self.node_statements + [scan for rule in self.rules for scan in rule.scans]

    @property
    def display(self) -> list[str]:
        """The distinct statements, and which segment shares which scan."""
        lines = [statement.display for statement in self.node_statements]
        for rule in self.rules:
            lines.extend(scan.display for scan in rule.scans)
            owner: dict[int, int] = {}
            for index, segment in enumerate(rule.segments):
                first = owner.setdefault(segment.scan, index)
                if first != index:
                    columns = "(c1, c0)" if segment.swapped else "(c0, c1)"
                    lines.append(
                        f"-- {rule.label}: segment {index} shares segment {first}'s "
                        f"scan, reading its rows as {columns}"
                    )
        return lines


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def _lower(render: Callable[[list[Any] | None], str]) -> Statement:
    parameters: list[Any] = []
    sql = render(parameters)
    return Statement(sql, tuple(parameters), render(None).rstrip(";"))


def _edge_select(db: Database, query: ConjunctiveQuery) -> Statement:
    return _lower(lambda p: to_sql(db, query, parameters=p, column_aliases=EDGE_COLUMNS))


def _compile_edge_rule(db: Database, rule_index: int, edge_plan: "EdgePlan") -> CompiledEdgeRule:
    label = str(edge_plan.rule.head) if edge_plan.rule is not None else f"rule {rule_index}"
    scans: list[Statement] = []
    scan_of: dict[tuple[str, tuple[Any, ...]], int] = {}
    segments: list[CompiledSegment] = []
    # a malformed rule raises ExtractionError here, before any lowering
    for query in edge_plan.queries():
        try:
            if isinstance(query, AggregateQuery):
                straight = _lower(lambda p, q=query: aggregate_to_sql(db, q, parameters=p))
                flipped = None
            else:
                straight = _edge_select(db, query)
                # the same conjunctive query read from its other end: head
                # swapped, atoms in reverse — the text the mirror-image
                # segment of a symmetric chain is generated with
                flipped = _edge_select(
                    db, replace(query, head_vars=query.head_vars[::-1], atoms=query.atoms[::-1])
                )
        except QueryError as exc:
            raise PushdownUnsupported(f"cannot lower rule {label} to SQL: {exc}") from exc
        if flipped is not None and straight.key not in scan_of and flipped.key in scan_of:
            segments.append(CompiledSegment(scan=scan_of[flipped.key], swapped=True))
            continue
        if straight.key not in scan_of:
            scan_of[straight.key] = len(scans)
            scans.append(straight)
        segments.append(CompiledSegment(scan=scan_of[straight.key], swapped=False))
    return CompiledEdgeRule(label=label, scans=scans, segments=segments)


def compile_plan(db: Database, plan: "ExtractionPlan") -> PushdownProgram:
    """Lower an extraction plan into its ``SELECT`` statements.

    Raises :class:`PushdownUnsupported` when any rule cannot be expressed
    (non-scalar constants, arity mismatches ...), and
    :class:`~repro.exceptions.ExtractionError` for a malformed plan, which no
    engine can run.
    """
    try:
        node_statements = [
            _lower(lambda p, q=node_plan.query: to_sql(db, q, parameters=p))
            for node_plan in plan.node_plans
        ]
    except QueryError as exc:
        raise PushdownUnsupported(f"cannot lower Nodes rule to SQL: {exc}") from exc
    rules = [
        _compile_edge_rule(db, index, edge_plan)
        for index, edge_plan in enumerate(plan.edge_plans)
    ]
    return PushdownProgram(node_statements=node_statements, rules=rules)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def run_pushdown(db: Database, plan: "ExtractionPlan") -> tuple[list[SegmentRows], int]:
    """Fetch ``plan``'s rows with one ``read_all`` of its distinct statements.

    Returns one ``(rows, swapped)`` per query of
    :meth:`~repro.core.planner.ExtractionPlan.queries`, in that order —
    segments that share a scan share its row list — and the number of
    statements issued: at most the ``python`` engine's query count, lower
    wherever segments share a scan.
    """
    program = compile_plan(db, plan)
    statements = program.statements()
    try:
        fetched = iter(
            db.sqlite_backend().read_all((s.sql, s.params) for s in statements)
        )
    except QueryError as exc:
        raise PushdownUnsupported(f"sqlite cannot run the plan: {exc}") from exc
    rows = [(next(fetched), False) for _ in program.node_statements]
    for rule in program.rules:
        scans = [next(fetched) for _ in rule.scans]
        rows.extend((scans[segment.scan], segment.swapped) for segment in rule.segments)
    return rows, len(statements)
