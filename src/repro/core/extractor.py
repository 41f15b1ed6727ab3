"""Graph extraction: executing a plan against the database (Section 4.2).

Given an :class:`~repro.core.planner.ExtractionPlan`, the extractor

1. loads the node set(s) from the rows of the Nodes queries (Step 1),
2. takes the rows of every segment query of every Edges rule (Step 3),
3. creates one virtual node per distinct value of every large-output join
   attribute (Step 4) and wires up the condensed edges (Step 5),
4. optionally expands the cheap virtual nodes (Step 6 preprocessing).

Steps 1 and 3–5 are one loader, shared by every engine
(:meth:`Extractor._load`, over
:meth:`~repro.graph.condensed.CondensedGraph.bulk_add_real_nodes` and
:meth:`~repro.graph.condensed.CondensedGraph.load_edges`).  The engines
differ only in where the rows come from:

* ``python`` — the built-in hash-join evaluator, one plan query at a time;
* ``sqlite`` — the database's SQLite mirror, every plan query in one
  ``read_all``;
* ``pushdown`` — :func:`~repro.relational.pushdown.run_pushdown`, one
  statement per *distinct* query, mirrored segments reading one scan swapped.

``python`` and ``sqlite`` evaluate every plan query on its own, so they stay
an independent check on pushdown's scan sharing.

The result is a :class:`~repro.graph.condensed.CondensedGraph` (which is the
C-DUP representation) plus an :class:`ExtractionReport` with the statistics
the Table 1 experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.config import (
    ENGINE_AUTO,
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    ENGINE_SQLITE,
    ExtractionOptions,
)
from repro.core.planner import ExtractionPlan, query_sql
from repro.dedup.expand import expand_virtual_node
from repro.graph.condensed import CondensedGraph
from repro.relational.aggregates import AggregateQuery, evaluate_aggregate
from repro.relational.database import Database
from repro.relational.pushdown import PushdownUnsupported, SegmentRows, run_pushdown
from repro.relational.query import ConjunctiveQuery, evaluate
from repro.utils.timing import Timer


@dataclass
class ExtractionReport:
    """What happened during one extraction (Table 1's columns and more).

    ``engine`` records which extraction engine actually ran (``"python"``,
    ``"sqlite"`` or ``"pushdown"``); ``notes`` carries provenance such as
    pushdown fallbacks.  ``queries_executed`` counts the queries the engine
    issued: one per Nodes rule and one per segment / full / aggregate query
    for ``python`` and ``sqlite``; pushdown issues one per *distinct* query of
    a rule, so it reads lower wherever segments share a scan (a symmetric
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
    per_rule_edges: list[int] = field(default_factory=list)
    engine: str = "python"
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class Extractor:
    """Executes extraction plans and builds condensed graphs."""

    def __init__(self, db: Database, options: ExtractionOptions | None = None) -> None:
        self._db = db
        self._options = options or ExtractionOptions()

    def extract_condensed(
        self, plan: ExtractionPlan
    ) -> tuple[CondensedGraph, ExtractionReport]:
        """Build the condensed (C-DUP) graph for ``plan``.

        Dispatches on ``ExtractionOptions.extract_engine`` to pick the row
        source; ``pushdown``/``auto`` fall back to the ``python`` one — with a
        note in the report — whenever the plan or data cannot be pushed down.
        Every engine's rows go through the same loader.
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
        # a malformed rule raises ExtractionError here, before any row source runs
        queries = plan.queries()
        if engine == ENGINE_PUSHDOWN:
            rows, report.queries_executed = run_pushdown(self._db, plan)
        else:
            rows, report.queries_executed = self._evaluate(queries, engine)
        graph = CondensedGraph()
        # strict: a row source out of step with the plan's queries fails
        # loudly instead of wiring one query's rows as another's
        self._load(plan, zip(queries, rows, strict=True), graph, report)
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

    def _evaluate(
        self, queries: list[ConjunctiveQuery | AggregateQuery], engine: str
    ) -> tuple[Iterable[SegmentRows], int]:
        """The ``python`` and ``sqlite`` row sources: every query of the plan
        evaluated on its own, in plan order, none read swapped."""
        if engine == ENGINE_SQLITE:
            statements = []
            for query in queries:
                parameters: list[Any] = []
                statements.append((query_sql(self._db, query, parameters), parameters))
            # one hold of the mirror's lock: every query sees one table state
            results: Iterable[list[tuple[Any, ...]]] = self._db.sqlite_backend().read_all(
                statements
            )
        else:
            results = (
                evaluate_aggregate(self._db, query)
                if isinstance(query, AggregateQuery)
                else evaluate(self._db, query)
                for query in queries
            )
        return ((rows, False) for rows in results), len(queries)

    # ------------------------------------------------------------------ #
    # Steps 1 and 3-5: the one loader
    # ------------------------------------------------------------------ #
    def _load(
        self,
        plan: ExtractionPlan,
        fed: Iterator[tuple[ConjunctiveQuery | AggregateQuery, SegmentRows]],
        graph: CondensedGraph,
        report: ExtractionReport,
    ) -> None:
        """Wire ``fed`` — each query of
        :meth:`~repro.core.planner.ExtractionPlan.queries` with its
        ``(rows, swapped)``, in that order — into ``graph``, counting edges
        per rule and skipped tuples."""
        skip_unknown = self._options.skip_unknown_endpoints
        for node_plan in plan.node_plans:
            _, (node_rows, _) = next(fed)
            graph.bulk_add_real_nodes(node_rows, node_plan.property_variables)
        for edge_plan in plan.edge_plans:
            if edge_plan.condensed:
                # virtual nodes live on the *boundaries* between consecutive
                # segments of the rule's chain: one node per (boundary, join
                # value), created as values appear (Step 4).  Keying by
                # boundary — not by join-attribute name — keeps the condensed
                # graph a DAG even when the same variable spans several
                # boundaries (e.g. a filter segment ``P -> P``): attribute-keyed
                # sharing would fuse the two layers into one virtual node,
                # producing a self-edge (an infinite traversal cycle) and
                # unsound paths that bypass the middle segment.
                boundaries = [(segment.out_variable, {}) for segment in edge_plan.segments[:-1]]
                sides = [
                    (
                        None if segment.starts_at_source else boundaries[index - 1],
                        None if segment.ends_at_target else boundaries[index],
                    )
                    for index, segment in enumerate(edge_plan.segments)
                ]
            else:
                sides = [(None, None)]
            edges = 0
            for left, right in sides:
                query, (query_rows, swapped) = next(fed)
                property_names = (
                    [spec.output_name for spec in query.aggregates]
                    if isinstance(query, AggregateQuery)
                    else []
                )
                added, skipped = graph.load_edges(
                    query_rows, swapped, left, right, skip_unknown, property_names
                )
                edges += added
                report.skipped_edge_tuples += skipped
            report.per_rule_edges.append(edges)
        # strict: raises if the row source has results left over
        next(fed, None)

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
