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

An extraction also leaves an :class:`ExtractionMemo`: each read table's
watermark, the loader's boundary dicts, the members of every virtual node
Step 6 expanded and the rows skipped for unknown endpoints.  When the tables
only grew since, :meth:`Extractor.extend` continues from it: the appended
rows of every (one-atom) query go through the reference evaluator and the
same loader into a copy of the graph, and Step 6 re-decides only the virtual
nodes they touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.config import (
    ENGINE_AUTO,
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    ENGINE_SQLITE,
    ExtractionOptions,
)
from repro.core.planner import EdgePlan, ExtractionPlan, query_sql
from repro.dedup.expand import expand_virtual_node
from repro.graph.condensed import CondensedGraph
from repro.relational.aggregates import AggregateQuery, evaluate_aggregate
from repro.relational.database import Database
from repro.relational.pushdown import PushdownUnsupported, SegmentRows, run_pushdown
from repro.relational.query import ConjunctiveQuery, evaluate
from repro.relational.table import Table
from repro.utils.timing import Timer

#: a chain boundary of the loader: (join attribute, join value -> virtual node)
Boundary = tuple[str, dict[Hashable, int]]


@dataclass
class ExtractionReport:
    """What happened during one extraction (Table 1's columns and more).

    ``engine`` records which extraction engine actually ran (``"python"``,
    ``"sqlite"`` or ``"pushdown"``); ``notes`` carries provenance such as
    pushdown fallbacks.  ``queries_executed`` counts the queries the engine
    issued: one per Nodes rule and one per segment / full / aggregate query
    for ``python`` and ``sqlite``; pushdown issues one per *distinct* query of
    a rule, so it reads lower wherever segments share a scan (a symmetric
    co-occurrence rule: 2 instead of 3) and never higher.  An extraction
    that extended the last one (:meth:`Extractor.extend`) read only the
    appended rows, through the ``python`` evaluator: ``engine`` says
    ``python``, ``queries_executed`` is 0, a note says how much it read, and
    the counters describe the whole extended graph.
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


@dataclass
class ExtractionMemo:
    """What one extraction leaves for the next extraction of the same
    (spec, options) to extend (:meth:`Extractor.extend`), instead of reading
    every row again."""

    plan: ExtractionPlan
    #: every table the plan reads -> (that Table, its epoch, its row count),
    #: taken before any of its rows were read
    watermarks: dict[str, tuple[Table, int, int]]
    #: per Edges rule, the loader's chain boundaries (empty for a full rule)
    boundaries: list[list[Boundary]]
    #: virtual node Step 6 expanded -> (its label, in- and out-members then)
    expanded: dict[int, tuple[Any, list[int], list[int]]]
    #: the endpoint values edge rows were skipped for, unknown at the time
    skipped: set
    report: ExtractionReport
    condensed: CondensedGraph
    #: the graph handed out over ``condensed``, and its write token then
    graph: Any = None
    token: Any = None

    def hand_out(self, graph: Any) -> None:
        """Record ``graph`` as the graph handed out over ``condensed``."""
        self.graph, self.token = graph, graph.write_token()


class Extractor:
    """Executes extraction plans and builds condensed graphs."""

    def __init__(self, db: Database, options: ExtractionOptions | None = None) -> None:
        self._db = db
        self._options = options or ExtractionOptions()

    def extract_condensed(
        self, plan: ExtractionPlan, keep: Callable[[ExtractionMemo], None] | None = None
    ) -> tuple[CondensedGraph, ExtractionReport]:
        """Build the condensed (C-DUP) graph for ``plan``.

        Dispatches on ``ExtractionOptions.extract_engine`` to pick the row
        source; ``pushdown``/``auto`` fall back to the ``python`` one — with a
        note in the report — whenever the plan or data cannot be pushed down.
        Every engine's rows go through the same loader.  ``keep``, when
        given, receives the :class:`ExtractionMemo` a later :meth:`extend`
        continues from.
        """
        engine = self._options.extract_engine
        if engine in (ENGINE_PUSHDOWN, ENGINE_AUTO):
            try:
                graph, report, memo = self._extract(plan, ENGINE_PUSHDOWN)
            except PushdownUnsupported as exc:
                graph, report, memo = self._extract(plan, ENGINE_PYTHON)
                report.notes.append(
                    f"pushdown unavailable ({exc}); fell back to the {ENGINE_PYTHON} engine"
                )
        else:
            graph, report, memo = self._extract(plan, engine)
        if keep is not None:
            keep(memo)
        return graph, report

    def _extract(
        self, plan: ExtractionPlan, engine: str
    ) -> tuple[CondensedGraph, ExtractionReport, ExtractionMemo]:
        report = ExtractionReport(engine=engine)
        timer = Timer().start()
        # a malformed rule raises ExtractionError here, before any row source runs
        queries = plan.queries()
        watermarks = self._watermarks(plan)
        if engine == ENGINE_PUSHDOWN:
            rows, report.queries_executed = run_pushdown(self._db, plan)
        else:
            rows, report.queries_executed = self._evaluate(queries, engine)
        graph = CondensedGraph()
        skipped: set = set()
        # strict: a row source out of step with the plan's queries fails
        # loudly instead of wiring one query's rows as another's
        boundaries = self._load(plan, zip(queries, rows, strict=True), graph, report, skipped)
        expanded: dict[int, tuple[Any, list[int], list[int]]] = {}
        if self._options.preprocess:
            report.preprocessing_expanded_virtual_nodes = self._preprocess(
                graph, list(graph.virtual_nodes()), expanded
            )
        report.seconds = timer.stop()
        report.real_nodes = graph.num_real_nodes
        report.virtual_nodes = graph.num_virtual_nodes
        # counted while loading; only Step 6 can have changed it since
        report.condensed_edges = (
            graph.num_condensed_edges
            if report.preprocessing_expanded_virtual_nodes
            else sum(report.per_rule_edges)
        )
        memo = ExtractionMemo(plan, watermarks, boundaries, expanded, skipped, report, graph)
        return graph, report, memo

    def _watermarks(self, plan: ExtractionPlan) -> dict[str, tuple[Table, int, int]]:
        """``(Table, epoch, row count)`` of every table ``plan`` reads, now."""
        names = (name for name in plan.spec.referenced_tables() if self._db.has_table(name))
        tables = (self._db.table(name) for name in names)
        return {table.name: (table, table.epoch, table.num_rows) for table in tables}

    # ------------------------------------------------------------------ #
    # extending the last extraction by the rows appended since
    # ------------------------------------------------------------------ #
    def extend(
        self, plan: ExtractionPlan, memo: ExtractionMemo
    ) -> tuple[CondensedGraph, ExtractionReport, ExtractionMemo, set[int]] | str:
        """Continue ``memo``'s extraction to the tables as they are now.

        The caller has checked that ``plan`` has ``memo.plan``'s shape, that
        every query of it reads one atom, and that every table only grew.
        Each query's appended rows (``rows()[watermark:]``) go through the
        reference evaluator; rows the graph already holds — an edge present,
        or recorded among the members of a virtual node Step 6 expanded —
        are dropped, and the rest are wired by :meth:`_load` into a copy of
        ``memo.condensed`` that shares every row it does not write
        (:meth:`~repro.graph.condensed.CondensedGraph.copy`), with the kept
        boundary dicts.  A row on a join value whose virtual node Step 6
        expanded first brings that node back from its recorded members (the
        direct edges its expansion left stay: C-DUP de-duplicates the walk).
        Step 6 then re-decides the virtual nodes the rows touched, in
        creation order.

        Returns the graph, its report, the memo for the next call, and the
        internal real nodes whose walk reads an adjacency list that changed
        (:meth:`~repro.graph.kernel.CSRGraph.splice` walks those afresh);
        or, when the appended rows cannot be wired on top — a Nodes row for
        an endpoint some edge row was skipped for, or new properties for a
        node — the reason, and nothing is changed.
        """
        timer = Timer().start()
        base = memo.condensed
        watermarks = self._watermarks(plan)
        # read up to at least the new watermarks: a row read twice is held
        tails = [
            evaluate(self._db, query, since=memo.watermarks[query.atoms[0].table][2])
            for query in plan.queries()
        ]
        fresh_nodes: list[list[tuple]] = []
        for node_plan, rows in zip(plan.node_plans, tails):
            fresh = []
            for row in rows:
                if not base.has_external(row[0]):
                    if row[0] in memo.skipped:
                        return (
                            f"an edge row was skipped for node {row[0]!r}, "
                            "which is now in the Nodes rows"
                        )
                    fresh.append(row)
                    continue
                known = base.node_properties.get(base.internal(row[0]), {})
                properties = zip(node_plan.property_variables, row[1:])
                if any(known.get(name) != value for name, value in properties):
                    return f"the Nodes rows give node {row[0]!r} new properties"
            fresh_nodes.append(fresh)

        graph = base.copy()
        succ = graph.succ
        boundaries = [
            [(attribute, dict(nodes)) for attribute, nodes in rule] for rule in memo.boundaries
        ]
        expanded = dict(memo.expanded)
        skipped = set(memo.skipped)
        #: nodes whose out-list may have changed; virtual nodes to re-decide
        changed: set[int] = set()
        touched: set[int] = set()

        def node_of(value: Hashable, side: Boundary | None) -> int | None:
            if side is not None:
                return side[1].get(value)
            return graph.internal(value) if graph.has_external(value) else None

        def holds(source: int, target: int) -> bool:
            record = expanded.get(source)
            if record is not None and target in record[2]:
                return True
            record = expanded.get(target)
            if record is not None and source in record[1]:
                return True
            return target in succ.get(source, ())

        def revive(virtual: int) -> None:
            label, in_nodes, out_nodes = expanded.pop(virtual)
            for member in in_nodes + out_nodes:
                if member not in succ:
                    revive(member)
            graph.restore_virtual_node(virtual, label, in_nodes, out_nodes)
            changed.update(in_nodes)
            changed.add(virtual)
            touched.add(virtual)

        fed: list[tuple[Any, tuple[list, bool]]] = [
            (node_plan.query, (rows, False))
            for node_plan, rows in zip(plan.node_plans, fresh_nodes)
        ]
        wired: list[tuple[list, Boundary | None, Boundary | None]] = []
        edge_tails = iter(tails[len(plan.node_plans) :])
        for edge_plan, rule_boundaries in zip(plan.edge_plans, boundaries):
            sides = self._sides(edge_plan, rule_boundaries)
            for query, (left, right) in zip(edge_plan.queries(), sides):
                rows = []
                for row in next(edge_tails):
                    source, target = node_of(row[0], left), node_of(row[1], right)
                    if source is not None and target is not None and holds(source, target):
                        continue
                    for node in (source, target):
                        if node is not None and node not in succ:
                            revive(node)
                    rows.append(row)
                fed.append((query, (rows, False)))
                wired.append((rows, left, right))
        report = ExtractionReport(engine=ENGINE_PYTHON)
        self._load(plan, iter(fed), graph, report, skipped, boundaries)
        for rows, left, right in wired:
            for row in rows:
                source, target = node_of(row[0], left), node_of(row[1], right)
                if source is not None:
                    changed.add(source)
                touched.update(node for node in (source, target) if node is not None and node < 0)

        previous = memo.report
        expansions = 0
        if self._options.preprocess:
            order = sorted((node for node in touched if node in succ), reverse=True)
            expansions = self._preprocess(graph, order, expanded)
            for node in order:
                if node in expanded:
                    changed.update(expanded[node][1])
        rewalk = self._rewalk(base, graph, changed)

        appended = sum(watermarks[name][2] - memo.watermarks[name][2] for name in watermarks)
        report.notes.append(
            f"extended the last extraction: {appended} appended row(s), "
            f"{sum(len(rows) for _, (rows, _) in fed)} query row(s) wired, "
            f"{len(rewalk)} vertices to re-walk"
        )
        report.per_rule_edges = [
            before + now for before, now in zip(previous.per_rule_edges, report.per_rule_edges)
        ]
        report.skipped_edge_tuples += previous.skipped_edge_tuples
        report.preprocessing_expanded_virtual_nodes = (
            previous.preprocessing_expanded_virtual_nodes + expansions
        )
        report.real_nodes = graph.num_real_nodes
        report.virtual_nodes = graph.num_virtual_nodes
        # every out-list the rows, revivals and expansions changed is one of
        # these nodes'
        report.condensed_edges = previous.condensed_edges + sum(
            len(succ.get(node, ())) - len(base.succ.get(node, ())) for node in changed | touched
        )
        report.seconds = timer.stop()
        extended = ExtractionMemo(plan, watermarks, boundaries, expanded, skipped, report, graph)
        return graph, report, extended, rewalk

    @staticmethod
    def _rewalk(base: CondensedGraph, graph: CondensedGraph, changed: Iterable[int]) -> set[int]:
        """The real nodes of ``base`` whose walk in ``graph`` reads an
        out-list that differs from ``base``'s: a changed real node itself,
        and every real node reaching a changed virtual node through virtual
        nodes only (followed backwards, over ``pred``)."""
        succ, pred = graph.succ, graph.pred
        stack = [node for node in changed if node in succ and succ[node] != base.succ.get(node)]
        seen = set(stack)
        rewalk: set[int] = set()
        while stack:
            node = stack.pop()
            if node >= 0:
                if node in base.succ:
                    rewalk.add(node)
                continue
            for source in pred[node]:
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return rewalk

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
        unknown: set,
        boundaries: list[list[Boundary]] | None = None,
    ) -> list[list[Boundary]]:
        """Wire ``fed`` — each query of
        :meth:`~repro.core.planner.ExtractionPlan.queries` with its
        ``(rows, swapped)``, in that order — into ``graph``, counting edges
        per rule and skipped tuples, and collecting in ``unknown`` the
        endpoint values rows were skipped for.

        Virtual nodes live on the *boundaries* between consecutive segments
        of a condensed rule's chain: one node per (boundary, join value),
        created as values appear (Step 4).  Keying by boundary — not by
        join-attribute name — keeps the condensed graph a DAG even when the
        same variable spans several boundaries (e.g. a filter segment
        ``P -> P``): attribute-keyed sharing would fuse the two layers into
        one virtual node, producing a self-edge (an infinite traversal
        cycle) and unsound paths that bypass the middle segment.  Returns
        the boundaries — fresh ones, or ``boundaries`` extended."""
        skip_unknown = self._options.skip_unknown_endpoints
        if boundaries is None:
            boundaries = [
                [(segment.out_variable, {}) for segment in edge_plan.segments[:-1]]
                if edge_plan.condensed
                else []
                for edge_plan in plan.edge_plans
            ]
        for node_plan in plan.node_plans:
            _, (node_rows, _) = next(fed)
            graph.bulk_add_real_nodes(node_rows, node_plan.property_variables)
        for edge_plan, rule_boundaries in zip(plan.edge_plans, boundaries):
            edges = 0
            for left, right in self._sides(edge_plan, rule_boundaries):
                query, (query_rows, swapped) = next(fed)
                property_names = (
                    [spec.output_name for spec in query.aggregates]
                    if isinstance(query, AggregateQuery)
                    else []
                )
                added, skipped = graph.load_edges(
                    query_rows, swapped, left, right, skip_unknown, property_names, unknown
                )
                edges += added
                report.skipped_edge_tuples += skipped
            report.per_rule_edges.append(edges)
        # strict: raises if the row source has results left over
        next(fed, None)
        return boundaries

    @staticmethod
    def _sides(
        edge_plan: EdgePlan, boundaries: list[Boundary]
    ) -> list[tuple[Boundary | None, Boundary | None]]:
        """``(left, right)`` of each query of the rule, in order: the
        boundary a segment starts or ends on, ``None`` for a real endpoint."""
        if not edge_plan.condensed:
            return [(None, None)]
        return [
            (
                None if segment.starts_at_source else boundaries[index - 1],
                None if segment.ends_at_target else boundaries[index],
            )
            for index, segment in enumerate(edge_plan.segments)
        ]

    # ------------------------------------------------------------------ #
    # Step 6: preprocessing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _preprocess(
        graph: CondensedGraph,
        virtuals: Iterable[int],
        expanded: dict[int, tuple[Any, list[int], list[int]]],
    ) -> int:
        """Expand each of ``virtuals`` whose expansion does not pay off
        keeping, in that order, recording its label and members in
        ``expanded``; returns how many were expanded.

        A virtual node with ``in`` incoming and ``out`` outgoing edges costs
        ``in + out`` edges plus the node itself; expanding it costs at most
        ``in * out`` direct edges.  When ``in * out <= in + out + 1`` the
        expansion is never larger, so it is applied (Section 4.2, Step 6).
        """
        count = 0
        for virtual in virtuals:
            in_nodes, out_nodes = graph.inn(virtual), graph.out(virtual)
            fan_in, fan_out = len(in_nodes), len(out_nodes)
            if fan_in * fan_out <= fan_in + fan_out + 1:
                expanded[virtual] = (graph.virtual_labels[virtual], list(in_nodes), list(out_nodes))
                expand_virtual_node(graph, virtual)
                count += 1
        return count
