"""Query planning: deciding which joins to postpone (Section 4.2, Steps 1–3).

The planner turns a parsed :class:`~repro.dsl.ast.GraphSpec` into an
:class:`ExtractionPlan`:

* every Nodes rule becomes a conjunctive query producing ``(id, prop...)``;
* every acyclic Edges rule is linearised into a join chain
  ``R1(ID1, a1), R2(a1, a2), ..., Rn(a_{n-1}, ID2)`` and each join attribute
  ``ai`` is classified as *large-output* or not from the catalog's exact
  join size (:meth:`~repro.relational.catalog.Catalog.is_large_output_join`);
* the chain is then split at the large-output joins into *segments*; each
  segment becomes one conjunctive query (these are the queries handed to the
  database), and each large-output join attribute becomes a layer of virtual
  nodes in the condensed graph;
* cyclic / non-linearisable Edges rules fall back to a single query that
  materialises the full edge list (the paper's Case 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dsl.ast import Anonymous, Atom, Constant, GraphSpec, Rule, Variable
from repro.dsl.validator import EdgeChain, derive_chain, is_acyclic
from repro.exceptions import DSLValidationError, ExtractionError
from repro.core.config import ExtractionOptions
from repro.relational.aggregates import (
    AggregateQuery,
    AggregateSpec,
    HavingClause,
    aggregate_to_sql,
)
from repro.relational.database import Database
from repro.relational.query import Comparison, ConjunctiveQuery, Const, QueryAtom
from repro.relational.sql import to_sql


def query_sql(
    db: Database, query: ConjunctiveQuery | AggregateQuery, parameters: list[Any] | None = None
) -> str:
    """SQL text of one plan query, conjunctive or grouped; values are bound
    as ``?`` into ``parameters`` when given, inlined otherwise."""
    lower = aggregate_to_sql if isinstance(query, AggregateQuery) else to_sql
    return lower(db, query, parameters=parameters)


# --------------------------------------------------------------------------- #
# plan data structures
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class JoinDecision:
    """Classification of one join in an Edges chain."""

    variable: str
    left_table: str
    left_column: str
    right_table: str
    right_column: str
    left_rows: int
    right_rows: int
    #: the join's exact output row count
    estimated_output: int
    #: the output size above which the join is large-output
    threshold: float
    is_large_output: bool


@dataclass
class SegmentPlan:
    """One conjunctive query of an Edges chain between two boundary variables."""

    query: ConjunctiveQuery
    in_variable: str
    out_variable: str
    #: True when ``in_variable`` is the rule's source-ID variable
    starts_at_source: bool
    #: True when ``out_variable`` is the rule's target-ID variable
    ends_at_target: bool


@dataclass
class EdgePlan:
    """Plan for a single Edges rule."""

    rule: Rule
    condensed: bool
    #: populated when ``condensed`` is True
    chain: EdgeChain | None = None
    decisions: list[JoinDecision] = field(default_factory=list)
    segments: list[SegmentPlan] = field(default_factory=list)
    #: the large-output join variables, in chain order (one virtual layer each)
    virtual_attributes: list[str] = field(default_factory=list)
    #: populated when ``condensed`` is False: one query computing (ID1, ID2)
    full_query: ConjunctiveQuery | None = None
    #: populated instead of ``full_query`` for rules that use aggregation
    #: constructs; produces (ID1, ID2, aggregates...) rows
    aggregate_query: AggregateQuery | None = None

    def queries(self) -> list[ConjunctiveQuery | AggregateQuery]:
        """The queries this rule hands to the database, in order: one per
        segment of a condensed rule, else its one aggregate or full query.

        Every engine and the extractor's loader read a rule's queries from
        here.  A rule with none — only a hand-built plan has one — raises
        :class:`~repro.exceptions.ExtractionError`.
        """
        if self.condensed:
            if not self.segments:
                raise ExtractionError(f"malformed plan: condensed rule {self.rule} has no segments")
            return [segment.query for segment in self.segments]
        if self.aggregate_query is not None:
            return [self.aggregate_query]
        if self.full_query is not None:
            return [self.full_query]
        raise ExtractionError(f"malformed plan: rule {self.rule} has no query")


@dataclass
class NodePlan:
    """Plan for a single Nodes rule."""

    rule: Rule
    query: ConjunctiveQuery
    id_variable: str
    property_variables: list[str]


@dataclass
class ExtractionPlan:
    """The complete plan for one extraction query."""

    spec: GraphSpec
    node_plans: list[NodePlan]
    edge_plans: list[EdgePlan]
    options: ExtractionOptions

    @property
    def is_fully_condensed(self) -> bool:
        return all(plan.condensed for plan in self.edge_plans)

    @property
    def case(self) -> int:
        """1 when every Edges rule admits the condensed extraction, else 2."""
        return 1 if self.is_fully_condensed else 2

    def num_virtual_layers(self) -> int:
        return max((len(p.virtual_attributes) for p in self.edge_plans), default=0)

    def queries(self) -> list[ConjunctiveQuery | AggregateQuery]:
        """Every query this plan hands to the database, in execution order:
        the Nodes queries, then each Edges rule's :meth:`EdgePlan.queries`
        (so a malformed rule raises before any query runs)."""
        return [node_plan.query for node_plan in self.node_plans] + [
            query for plan in self.edge_plans for query in plan.queries()
        ]

    def sql(self, db: Database) -> list[str]:
        """The SQL statements this plan would issue, in execution order."""
        return [query_sql(db, query) for query in self.queries()]

    def pushdown_sql(self, db: Database) -> list[str]:
        """What the pushdown engine would run instead: the *distinct*
        statements of :meth:`sql` (edge columns aliased ``c0, c1``), with a
        ``--`` line for every segment that reads another segment's scan.

        Lowers the plan through :mod:`repro.relational.pushdown`; raises
        :class:`~repro.relational.pushdown.PushdownUnsupported` when the plan
        cannot be pushed down (callers show the fallback instead), and
        :class:`~repro.exceptions.ExtractionError` when it is malformed.
        """
        from repro.relational.pushdown import compile_plan

        return compile_plan(db, self).display

    def describe(self) -> str:
        """Human-readable plan summary (used by ``GraphGen.explain``)."""
        lines = [f"extraction plan (case {self.case})"]
        for node_plan in self.node_plans:
            lines.append(f"  nodes: {node_plan.rule}")
        for edge_plan in self.edge_plans:
            lines.append(f"  edges: {edge_plan.rule}")
            if edge_plan.condensed:
                for decision in edge_plan.decisions:
                    kind = "LARGE-OUTPUT" if decision.is_large_output else "small"
                    lines.append(
                        f"    join on {decision.variable}: "
                        f"{decision.left_table}({decision.left_column}) x "
                        f"{decision.right_table}({decision.right_column}) "
                        f"= {decision.estimated_output} rows [{kind}]"
                    )
                lines.append(
                    f"    -> {len(edge_plan.segments)} segment(s), "
                    f"{len(edge_plan.virtual_attributes)} virtual layer(s)"
                )
            elif edge_plan.aggregate_query is not None:
                lines.append("    -> aggregated (expanded) edge query")
            else:
                lines.append("    -> full (expanded) edge query")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def dsl_atom_to_query_atom(atom: Atom) -> QueryAtom:
    """Convert a DSL atom into the relational layer's QueryAtom."""
    arguments: list[object] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            arguments.append(term.name)
        elif isinstance(term, Constant):
            arguments.append(Const(term.value))
        elif isinstance(term, Anonymous):
            arguments.append(None)
        else:  # pragma: no cover - defensive
            raise DSLValidationError(f"unsupported term {term!r} in atom {atom}")
    return QueryAtom(table=atom.predicate, arguments=tuple(arguments))


def _comparisons_for(rule: Rule, atoms: list[Atom]) -> list[Comparison]:
    """Rule comparisons whose variable is bound by one of ``atoms``."""
    bound: set[str] = set()
    for atom in atoms:
        bound.update(atom.variable_names())
    return [
        Comparison(c.variable.name, c.op, c.value)
        for c in rule.comparisons
        if c.variable.name in bound
    ]


def _column_for_variable(db: Database, atom: Atom, variable: str) -> str:
    """Column name bound to ``variable`` in ``atom`` (first occurrence)."""
    schema = db.table(atom.predicate).schema
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term.name == variable:
            return schema.column_names[position]
    raise ExtractionError(
        f"variable {variable!r} does not occur in atom {atom} (planner bug)"
    )


# --------------------------------------------------------------------------- #
# the planner
# --------------------------------------------------------------------------- #
class Planner:
    """Builds :class:`ExtractionPlan` objects from parsed specifications."""

    def __init__(self, db: Database, options: ExtractionOptions | None = None) -> None:
        self._db = db
        self._options = options or ExtractionOptions()

    # ------------------------------------------------------------------ #
    def plan(self, spec: GraphSpec) -> ExtractionPlan:
        spec.validate_shape()
        node_plans = [self._plan_nodes_rule(rule) for rule in spec.node_rules]
        edge_plans = [self._plan_edges_rule(rule) for rule in spec.edge_rules]
        return ExtractionPlan(
            spec=spec, node_plans=node_plans, edge_plans=edge_plans, options=self._options
        )

    # ------------------------------------------------------------------ #
    def _plan_nodes_rule(self, rule: Rule) -> NodePlan:
        head_terms = rule.head.terms
        if not isinstance(head_terms[0], Variable):
            raise DSLValidationError(f"the first Nodes term must be the ID variable: {rule}")
        id_variable = head_terms[0].name
        property_variables = [t.name for t in head_terms[1:] if isinstance(t, Variable)]
        query = ConjunctiveQuery(
            head_vars=[id_variable] + property_variables,
            atoms=[dsl_atom_to_query_atom(a) for a in rule.body],
            comparisons=_comparisons_for(rule, list(rule.body)),
            name="nodes",
        )
        return NodePlan(
            rule=rule,
            query=query,
            id_variable=id_variable,
            property_variables=property_variables,
        )

    # ------------------------------------------------------------------ #
    def _plan_edges_rule(self, rule: Rule) -> EdgePlan:
        if rule.has_aggregates:
            return self._plan_aggregate_rule(rule)
        if not is_acyclic(rule):
            return self._plan_full_rule(rule)
        try:
            chain = derive_chain(rule)
        except DSLValidationError:
            return self._plan_full_rule(rule)

        decisions = self._classify_joins(chain)
        segments = self._build_segments(rule, chain, decisions)
        virtual_attributes = [d.variable for d in decisions if d.is_large_output]
        return EdgePlan(
            rule=rule,
            condensed=True,
            chain=chain,
            decisions=decisions,
            segments=segments,
            virtual_attributes=virtual_attributes,
        )

    def _plan_aggregate_rule(self, rule: Rule) -> EdgePlan:
        """Plan an Edges rule that uses aggregation constructs (Case 2).

        The rule is evaluated as one grouped query: the join result is grouped
        by the two endpoint IDs, head aggregates become edge properties and
        ``count(X) >= k``-style constraints become HAVING clauses.
        """
        head_terms = rule.head.terms
        source = head_terms[0].name if isinstance(head_terms[0], Variable) else None
        target = head_terms[1].name if isinstance(head_terms[1], Variable) else None
        if source is None or target is None:
            raise DSLValidationError(f"Edges head must start with two ID variables: {rule}")

        specs: dict[tuple[str, str], AggregateSpec] = {}
        for term in rule.head_aggregates():
            key = (term.function, term.variable.name)
            specs.setdefault(key, AggregateSpec(term.function, term.variable.name))
        having: list[HavingClause] = []
        for constraint in rule.aggregate_constraints:
            key = (constraint.aggregate.function, constraint.aggregate.variable.name)
            spec = specs.setdefault(
                key, AggregateSpec(constraint.aggregate.function, constraint.aggregate.variable.name)
            )
            having.append(HavingClause(spec, constraint.op, constraint.value))

        aggregated_variables = sorted({var for _, var in specs})
        head_vars = [source, target] + [v for v in aggregated_variables if v not in (source, target)]
        inner = ConjunctiveQuery(
            head_vars=head_vars,
            atoms=[dsl_atom_to_query_atom(a) for a in rule.body],
            comparisons=_comparisons_for(rule, list(rule.body)),
            name="edges_aggregate_inner",
        )
        aggregate_query = AggregateQuery(
            query=inner,
            group_by=[source, target],
            aggregates=list(specs.values()),
            having=having,
            name="edges_aggregate",
        )
        return EdgePlan(rule=rule, condensed=False, aggregate_query=aggregate_query)

    def _plan_full_rule(self, rule: Rule) -> EdgePlan:
        head_terms = rule.head.terms
        source = head_terms[0].name if isinstance(head_terms[0], Variable) else None
        target = head_terms[1].name if isinstance(head_terms[1], Variable) else None
        if source is None or target is None:
            raise DSLValidationError(f"Edges head must start with two ID variables: {rule}")
        query = ConjunctiveQuery(
            head_vars=[source, target],
            atoms=[dsl_atom_to_query_atom(a) for a in rule.body],
            comparisons=_comparisons_for(rule, list(rule.body)),
            name="edges_full",
        )
        return EdgePlan(rule=rule, condensed=False, full_query=query)

    # ------------------------------------------------------------------ #
    def _classify_joins(self, chain: EdgeChain) -> list[JoinDecision]:
        """Step 2 for every join of the chain, from the catalog's exact
        counts (no statement goes to any SQL engine)."""
        catalog = self._db.catalog
        decisions: list[JoinDecision] = []
        for left_link, right_link in zip(chain.links, chain.links[1:]):
            variable = left_link.out_variable
            assert variable is not None  # guaranteed by derive_chain
            left_table, right_table = left_link.atom.predicate, right_link.atom.predicate
            left_column = _column_for_variable(self._db, left_link.atom, variable)
            right_column = _column_for_variable(self._db, right_link.atom, variable)
            decisions.append(
                JoinDecision(
                    variable=variable,
                    left_table=left_table,
                    left_column=left_column,
                    right_table=right_table,
                    right_column=right_column,
                    left_rows=catalog.row_count(left_table),
                    right_rows=catalog.row_count(right_table),
                    estimated_output=catalog.join_size(
                        left_table, left_column, right_table, right_column
                    ),
                    threshold=catalog.large_output_threshold(left_table, right_table),
                    is_large_output=catalog.is_large_output_join(
                        left_table, left_column, right_table, right_column
                    ),
                )
            )
        return decisions

    # ------------------------------------------------------------------ #
    def _build_segments(
        self, rule: Rule, chain: EdgeChain, decisions: list[JoinDecision]
    ) -> list[SegmentPlan]:
        links = chain.links
        # boundaries[i] is True when the join between links[i] and links[i+1]
        # is large-output, i.e. the chain is cut there
        boundaries = [d.is_large_output for d in decisions]

        segments: list[SegmentPlan] = []
        start = 0
        for index in range(len(links)):
            last_link = index == len(links) - 1
            if last_link or boundaries[index]:
                atoms = [link.atom for link in links[start : index + 1]]
                in_variable = (
                    chain.source_variable if start == 0 else links[start].in_variable
                )
                out_variable = (
                    chain.target_variable if last_link else links[index].out_variable
                )
                assert in_variable is not None and out_variable is not None
                query = ConjunctiveQuery(
                    head_vars=[in_variable, out_variable],
                    atoms=[dsl_atom_to_query_atom(a) for a in atoms],
                    comparisons=_comparisons_for(rule, atoms),
                    name=f"edges_segment_{len(segments)}",
                )
                segments.append(
                    SegmentPlan(
                        query=query,
                        in_variable=in_variable,
                        out_variable=out_variable,
                        starts_at_source=start == 0,
                        ends_at_target=last_link,
                    )
                )
                start = index + 1
        return segments
