"""Graph extraction: executing a plan against the database (Section 4.2).

Given an :class:`~repro.core.planner.ExtractionPlan`, the extractor

1. loads the node set(s) by evaluating the Nodes queries (Step 1),
2. evaluates every segment query of every Edges rule (Step 3),
3. creates one virtual node per distinct value of every large-output join
   attribute (Step 4) and wires up the condensed edges (Step 5),
4. optionally expands the cheap virtual nodes (Step 6 preprocessing).

The result is a :class:`~repro.graph.condensed.CondensedGraph` (which is the
C-DUP representation) plus an :class:`ExtractionReport` with the statistics
the Table 1 experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.config import (
    ENGINE_AUTO,
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    ENGINE_SQLITE,
    ExtractionOptions,
)
from repro.core.planner import EdgePlan, ExtractionPlan, NodePlan, query_sql
from repro.dedup.expand import expand, expand_virtual_node
from repro.exceptions import ExtractionError
from repro.graph.condensed import CondensedGraph
from repro.graph.expanded import ExpandedGraph
from repro.relational.aggregates import AggregateQuery, evaluate_aggregate
from repro.relational.database import Database
from repro.relational.pushdown import PushdownUnsupported, run_pushdown
from repro.relational.query import ConjunctiveQuery, evaluate
from repro.utils.timing import Timer


@dataclass
class ExtractionReport:
    """What happened during one extraction (Table 1's columns and more).

    ``engine`` records which extraction engine actually ran (``"python"``,
    ``"sqlite"`` or ``"pushdown"``); ``notes`` carries provenance such as
    pushdown fallbacks.  ``queries_executed`` counts the queries the engine
    issued: one per Nodes rule and one per segment / full / aggregate query
    for the row engines; pushdown issues one per *distinct* query of a rule,
    so it reads lower wherever segments share a scan (a symmetric
    co-occurrence rule: 2 instead of 3) and never higher.
    """

    condensed_edges: int = 0
    expanded_edges: int | None = None
    real_nodes: int = 0
    virtual_nodes: int = 0
    skipped_edge_tuples: int = 0
    preprocessing_expanded_virtual_nodes: int = 0
    seconds: float = 0.0
    queries_executed: int = 0
    auto_expanded: bool = False
    per_rule_edges: list[int] = field(default_factory=list)
    engine: str = "python"
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class QueryExecutor:
    """Evaluates a plan's queries either in Python or through SQLite.

    The SQLite path evaluates every query of the plan up front, on the
    database's one mirror (:meth:`~repro.relational.database.Database.
    sqlite_backend`) and under one hold of its lock, so that all of them see
    the same table state; the reference loop then runs over those rows with
    the lock released.
    """

    def __init__(self, db: Database, plan: ExtractionPlan, use_sqlite: bool) -> None:
        self._db = db
        self._rows: dict[int, list[tuple[Any, ...]]] | None = None
        if use_sqlite:
            queries = list(plan.queries())
            statements = []
            for query in queries:
                parameters: list[Any] = []
                statements.append((query_sql(db, query, parameters), parameters))
            rows = db.sqlite_backend().read_all(statements)
            self._rows = {id(query): result for query, result in zip(queries, rows)}

    def run(self, query: ConjunctiveQuery | AggregateQuery) -> list[tuple[Any, ...]]:
        if self._rows is not None:
            return self._rows[id(query)]
        if isinstance(query, AggregateQuery):
            return evaluate_aggregate(self._db, query)
        return evaluate(self._db, query)


class Extractor:
    """Executes extraction plans and builds condensed / expanded graphs."""

    def __init__(self, db: Database, options: ExtractionOptions | None = None) -> None:
        self._db = db
        self._options = options or ExtractionOptions()

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def extract_condensed(
        self, plan: ExtractionPlan
    ) -> tuple[CondensedGraph, ExtractionReport]:
        """Build the condensed (C-DUP) graph for ``plan``.

        Dispatches on ``ExtractionOptions.extract_engine``: the row-at-a-time
        engines (``python``/``sqlite``) or the one-pass SQL ``pushdown``
        engine, which falls back to the ``python`` reference — with a note in
        the report — whenever the plan or data cannot be pushed down.  All
        engines produce logically equivalent graphs.
        """
        engine = self._options.extract_engine
        if engine in (ENGINE_PUSHDOWN, ENGINE_AUTO):
            try:
                return self._extract(plan, ENGINE_PUSHDOWN)
            except PushdownUnsupported as exc:
                graph, report = self._extract(plan, ENGINE_PYTHON)
                report.notes.append(
                    f"pushdown unavailable ({exc}); fell back to the {ENGINE_PYTHON} engine"
                )
                return graph, report
        return self._extract(plan, engine)

    def _extract(self, plan: ExtractionPlan, engine: str) -> tuple[CondensedGraph, ExtractionReport]:
        report = ExtractionReport(engine=engine)
        timer = Timer().start()
        graph = CondensedGraph()
        if engine == ENGINE_PUSHDOWN:
            run_pushdown(self._db, plan, graph, report, self._options.skip_unknown_endpoints)
        else:
            self._load_rows(plan, engine, graph, report)
        if self._options.preprocess:
            report.preprocessing_expanded_virtual_nodes = self._preprocess(graph)
        report.seconds = timer.stop()
        report.real_nodes = graph.num_real_nodes
        report.virtual_nodes = graph.num_virtual_nodes
        # counted while loading; only Step 6 can have changed it since
        report.condensed_edges = (
            graph.num_condensed_edges
            if report.preprocessing_expanded_virtual_nodes
            else sum(report.per_rule_edges)
        )
        return graph, report

    def _load_rows(
        self, plan: ExtractionPlan, engine: str, graph: CondensedGraph, report: ExtractionReport
    ) -> None:
        """The row-at-a-time reference loop, over Python- or SQL-evaluated rows."""
        executor = QueryExecutor(self._db, plan, use_sqlite=engine == ENGINE_SQLITE)
        self._load_nodes(executor, plan.node_plans, graph, report)
        for edge_plan in plan.edge_plans:
            if edge_plan.condensed:
                edges = self._load_condensed_edges(executor, edge_plan, graph, report)
            elif edge_plan.aggregate_query is not None:
                edges = self._load_aggregate_edges(executor, edge_plan, graph, report)
            else:
                edges = self._load_full_edges(executor, edge_plan, graph, report)
            report.per_rule_edges.append(edges)

    def extract_expanded(
        self, plan: ExtractionPlan
    ) -> tuple[ExpandedGraph, ExtractionReport]:
        """Build the fully expanded (EXP) graph for ``plan``.

        This is the baseline path: the condensed structure is built first and
        then expanded in memory, which mirrors what a user would obtain by
        running the full join in the database.
        """
        graph, report = self.extract_condensed(plan)
        timer = Timer().start()
        expanded = expand(graph)
        report.seconds += timer.stop()
        report.expanded_edges = expanded.num_edges()
        report.auto_expanded = True
        return expanded, report

    # ------------------------------------------------------------------ #
    # Step 1: nodes
    # ------------------------------------------------------------------ #
    def _load_nodes(
        self,
        executor: QueryExecutor,
        node_plans: list[NodePlan],
        graph: CondensedGraph,
        report: ExtractionReport,
    ) -> None:
        for plan in node_plans:
            rows = executor.run(plan.query)
            report.queries_executed += 1
            for row in rows:
                node_id = row[0]
                properties = dict(zip(plan.property_variables, row[1:]))
                graph.add_real_node(node_id, **properties)

    # ------------------------------------------------------------------ #
    # Steps 3-5: condensed edges
    # ------------------------------------------------------------------ #
    def _load_condensed_edges(
        self,
        executor: QueryExecutor,
        plan: EdgePlan,
        graph: CondensedGraph,
        report: ExtractionReport,
    ) -> int:
        # virtual nodes live on the *boundaries* between consecutive segments
        # of the rule's chain: one node per (boundary, join value), created
        # lazily as values appear (Step 4).  Keying by boundary index — not by
        # join-attribute name — keeps the condensed graph a DAG even when the
        # same variable spans several boundaries (e.g. a filter segment
        # ``P -> P``): attribute-keyed sharing would fuse the two layers into
        # one virtual node, producing a self-edge (an infinite traversal
        # cycle) and unsound paths that bypass the middle segment.
        virtual_of: dict[tuple[int, Hashable], int] = {}

        def virtual_for(boundary: int, attribute: str, value: Hashable) -> int:
            key = (boundary, value)
            if key not in virtual_of:
                virtual_of[key] = graph.add_virtual_node((attribute, value))
            return virtual_of[key]

        edges = 0
        for index, segment in enumerate(plan.segments):
            rows = executor.run(segment.query)
            report.queries_executed += 1
            # segment queries are DISTINCT, so edges cannot repeat within a
            # segment; only direct real->real edges (single-segment rules) can
            # collide with edges produced by other rules and need the check
            allow_duplicate = not (segment.starts_at_source and segment.ends_at_target)
            for left_value, right_value in rows:
                # resolve the left endpoint (in-boundary of segment ``index``)
                if segment.starts_at_source:
                    if not graph.has_external(left_value):
                        if self._options.skip_unknown_endpoints:
                            report.skipped_edge_tuples += 1
                            continue
                        graph.add_real_node(left_value)
                    source = graph.internal(left_value)
                else:
                    source = virtual_for(index - 1, segment.in_variable, left_value)
                # resolve the right endpoint (out-boundary of segment ``index``)
                if segment.ends_at_target:
                    if not graph.has_external(right_value):
                        if self._options.skip_unknown_endpoints:
                            report.skipped_edge_tuples += 1
                            continue
                        graph.add_real_node(right_value)
                    target = graph.internal(right_value)
                else:
                    target = virtual_for(index, segment.out_variable, right_value)
                edges += graph.add_edge(source, target, allow_duplicate=allow_duplicate)
        return edges

    # ------------------------------------------------------------------ #
    # Case 2: fully expanded edge rule
    # ------------------------------------------------------------------ #
    def _load_full_edges(
        self,
        executor: QueryExecutor,
        plan: EdgePlan,
        graph: CondensedGraph,
        report: ExtractionReport,
    ) -> int:
        if plan.full_query is None:  # pragma: no cover - defensive
            raise ExtractionError(f"edge plan for {plan.rule} has no query")
        rows = executor.run(plan.full_query)
        report.queries_executed += 1
        edges = 0
        for source_value, target_value in rows:
            known_source = graph.has_external(source_value)
            known_target = graph.has_external(target_value)
            if not (known_source and known_target):
                if self._options.skip_unknown_endpoints:
                    report.skipped_edge_tuples += 1
                    continue
                graph.add_real_node(source_value)
                graph.add_real_node(target_value)
            edges += graph.add_edge(
                graph.internal(source_value),
                graph.internal(target_value),
                allow_duplicate=False,
            )
        return edges

    # ------------------------------------------------------------------ #
    # Case 2 with aggregation: grouped edge rule (weights / HAVING filters)
    # ------------------------------------------------------------------ #
    def _load_aggregate_edges(
        self,
        executor: QueryExecutor,
        plan: EdgePlan,
        graph: CondensedGraph,
        report: ExtractionReport,
    ) -> int:
        """Load an aggregated Edges rule as direct, annotated real→real edges.

        Grouped rules run through the executor like every other rule: the
        SQLite path executes the generated ``GROUP BY``/``HAVING`` SQL, the
        Python path the built-in grouped evaluator — both counted once in
        ``queries_executed``.  Either way this is the paper's Case-2 fallback
        of materialising the full edge list.
        """
        aggregate_query = plan.aggregate_query
        if aggregate_query is None:  # pragma: no cover - defensive
            raise ExtractionError(f"edge plan for {plan.rule} has no aggregate query")
        rows = executor.run(aggregate_query)
        report.queries_executed += 1
        property_names = [spec.output_name for spec in aggregate_query.aggregates]
        edges = 0
        for row in rows:
            source_value, target_value = row[0], row[1]
            known_source = graph.has_external(source_value)
            known_target = graph.has_external(target_value)
            if not (known_source and known_target):
                if self._options.skip_unknown_endpoints:
                    report.skipped_edge_tuples += 1
                    continue
                graph.add_real_node(source_value)
                graph.add_real_node(target_value)
            source = graph.internal(source_value)
            target = graph.internal(target_value)
            edges += graph.add_edge(source, target, allow_duplicate=False)
            if property_names:
                graph.annotate_edge(
                    source, target, **dict(zip(property_names, row[2:]))
                )
        return edges

    # ------------------------------------------------------------------ #
    # Step 6: preprocessing
    # ------------------------------------------------------------------ #
    def _preprocess(self, graph: CondensedGraph) -> int:
        """Expand every virtual node whose expansion does not pay off keeping.

        A virtual node with ``in`` incoming and ``out`` outgoing edges costs
        ``in + out`` edges plus the node itself; expanding it costs at most
        ``in * out`` direct edges.  When ``in * out <= in + out + 1`` the
        expansion is never larger, so it is applied (Section 4.2, Step 6).
        """
        expanded = 0
        for virtual in list(graph.virtual_nodes()):
            fan_in = len(graph.inn(virtual))
            fan_out = len(graph.out(virtual))
            if fan_in * fan_out <= fan_in + fan_out + 1:
                expand_virtual_node(graph, virtual)
                expanded += 1
        return expanded

