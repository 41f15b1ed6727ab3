"""One-pass SQL extraction: the database evaluates the small-output queries,
one pass over their rows wires the condensed graph (paper §4.2, Table 1).

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
* each result is handed to the graph once:
  :meth:`~repro.graph.condensed.CondensedGraph.bulk_add_real_nodes` for Nodes
  rows, :meth:`~repro.graph.condensed.CondensedGraph.load_edges` for edge
  rows, which dictionary-encodes both endpoints (real: the graph's external →
  internal map; virtual: one dict per chain boundary, keyed by join value)
  and appends to the adjacency lists with the reference loop's semantics.
  Endpoint identity is therefore Python equality, exactly as in the reference
  engine — a ``NULL`` join value is the key ``None``.

Numbering IDs inside SQL instead (an ID-map temp table, a window-function
rank per boundary, three-way joins back to both, sorted output) lost to this
at every size measured: each extra statement re-reads rows that two dict
lookups encode while they are being loaded anyway.

Anything that cannot be lowered or executed raises
:class:`PushdownUnsupported`; the caller falls back to the reference engine
and records a note, never a wrong graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import QueryError
from repro.relational.aggregates import aggregate_to_sql
from repro.relational.database import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.sql import to_sql

if TYPE_CHECKING:  # pragma: no cover - core imports us; type-only back-ref
    from repro.core.planner import EdgePlan, ExtractionPlan
    from repro.graph.condensed import CondensedGraph

#: output aliases of every edge query: what makes two texts comparable
EDGE_COLUMNS = ("c0", "c1")


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
    """Where one segment's rows come from and what its endpoints are."""

    #: index into the rule's ``scans``
    scan: int
    #: the rows are the scan's with the two columns swapped
    swapped: bool
    #: chain-boundary index of a virtual endpoint, ``None`` for a real one
    left: int | None = None
    right: int | None = None


@dataclass
class CompiledEdgeRule:
    """One Edges rule: its distinct scans and the segments reading them.
    A full or aggregate rule is one scan read by one real → real segment."""

    label: str
    scans: list[Statement]
    segments: list[CompiledSegment]
    #: per chain boundary: the join attribute labelling its virtual nodes
    boundary_attributes: list[str] = field(default_factory=list)
    #: aggregate rules: names of the edge-property columns after ``c0, c1``
    property_names: list[str] = field(default_factory=list)


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
    try:
        if edge_plan.condensed:
            if not edge_plan.segments:
                raise PushdownUnsupported(
                    f"malformed plan: condensed rule {label} has no segments"
                )
            scans: list[Statement] = []
            scan_of: dict[tuple[str, tuple[Any, ...]], int] = {}
            segments: list[CompiledSegment] = []
            for index, segment in enumerate(edge_plan.segments):
                query = segment.query
                straight = _edge_select(db, query)
                # the same conjunctive query read from its other end: head
                # swapped, atoms in reverse — the text the mirror-image
                # segment of a symmetric chain is generated with
                flipped = _edge_select(
                    db, replace(query, head_vars=query.head_vars[::-1], atoms=query.atoms[::-1])
                )
                swapped = straight.key not in scan_of and flipped.key in scan_of
                if swapped:
                    scan = scan_of[flipped.key]
                else:
                    if straight.key not in scan_of:
                        scan_of[straight.key] = len(scans)
                        scans.append(straight)
                    scan = scan_of[straight.key]
                segments.append(
                    CompiledSegment(
                        scan=scan,
                        swapped=swapped,
                        left=None if segment.starts_at_source else index - 1,
                        right=None if segment.ends_at_target else index,
                    )
                )
            return CompiledEdgeRule(
                label=label,
                scans=scans,
                segments=segments,
                boundary_attributes=[s.out_variable for s in edge_plan.segments[:-1]],
            )

        if edge_plan.aggregate_query is not None:
            aggregate_query = edge_plan.aggregate_query
            return CompiledEdgeRule(
                label=label,
                scans=[_lower(lambda p: aggregate_to_sql(db, aggregate_query, parameters=p))],
                segments=[CompiledSegment(scan=0, swapped=False)],
                property_names=[spec.output_name for spec in aggregate_query.aggregates],
            )

        full_query = edge_plan.full_query
        if full_query is None:
            raise PushdownUnsupported(f"malformed plan: rule {label} has no query")
        return CompiledEdgeRule(
            label=label,
            scans=[_edge_select(db, full_query)],
            segments=[CompiledSegment(scan=0, swapped=False)],
        )
    except QueryError as exc:
        raise PushdownUnsupported(f"cannot lower rule {label} to SQL: {exc}") from exc


def compile_plan(db: Database, plan: "ExtractionPlan") -> PushdownProgram:
    """Lower an extraction plan into its ``SELECT`` statements.

    Raises :class:`PushdownUnsupported` when any rule cannot be expressed
    (malformed plans, non-scalar constants, arity mismatches ...).
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
def run_pushdown(
    db: Database,
    plan: "ExtractionPlan",
    graph: "CondensedGraph",
    report: Any,
    skip_unknown_endpoints: bool = True,
) -> None:
    """Fill ``graph`` (a fresh condensed graph) from ``plan``'s statements.

    Also fills the per-rule counters of ``report`` (an
    :class:`~repro.core.extractor.ExtractionReport`): ``skipped_edge_tuples``,
    ``per_rule_edges`` and ``queries_executed`` — the number of statements
    issued, at most the row engines' count and lower wherever segments
    share a scan.
    """
    program = compile_plan(db, plan)
    statements = program.statements()
    try:
        fetched = iter(
            db.sqlite_backend().read_all((s.sql, s.params) for s in statements)
        )
    except QueryError as exc:
        raise PushdownUnsupported(f"sqlite cannot run the plan: {exc}") from exc
    report.queries_executed += len(statements)

    for node_plan in plan.node_plans:
        graph.bulk_add_real_nodes(next(fetched), node_plan.property_variables)
    for rule in program.rules:
        scans = [next(fetched) for _ in rule.scans]
        boundaries = [(attribute, {}) for attribute in rule.boundary_attributes]
        edges = 0
        for segment in rule.segments:
            added, skipped = graph.load_edges(
                scans[segment.scan],
                swapped=segment.swapped,
                left=None if segment.left is None else boundaries[segment.left],
                right=None if segment.right is None else boundaries[segment.right],
                skip_unknown=skip_unknown_endpoints,
                property_names=rule.property_names,
            )
            edges += added
            report.skipped_edge_tuples += skipped
        report.per_rule_edges.append(edges)
