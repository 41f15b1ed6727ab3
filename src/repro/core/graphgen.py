"""The public GraphGen facade.

This is the class users interact with: connect it to a
:class:`~repro.relational.database.Database`, hand it an extraction query in
the Datalog DSL, and get back an in-memory graph in the representation of
your choice::

    gg = GraphGen(db)
    graph = gg.extract('''
        Nodes(ID, Name) :- Author(ID, Name).
        Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
    ''', representation="bitmap")
    pagerank = repro.algorithms.pagerank(graph)

Representations: ``"cdup"`` (default, no preprocessing), ``"exp"``,
``"dedup1"``, ``"dedup2"``, ``"bitmap"`` or ``"auto"`` (the paper's Section
6.5 guidance: EXP when it stores at most 20 % more edges than the condensed
graph, C-DUP otherwise).

A C-DUP extraction of tables that only grew since the last one of the same
spec and options extends that one instead of reading every row again (see
:meth:`GraphGen.extract_with_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.config import (
    ENGINE_AUTO,
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    REPRESENTATIONS,
    ExtractionOptions,
)
from repro.relational.pushdown import PushdownUnsupported
from repro.core.extractor import ExtractionMemo, ExtractionReport, Extractor
from repro.core.planner import ExtractionPlan, Planner
from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.dedup.expand import expand, expansion_ratio
from repro.dsl.ast import GraphSpec
from repro.dsl.parser import parse
from repro.exceptions import ExtractionError
from repro.graph.api import Graph
from repro.graph.cdup import CDupGraph
from repro.graph.condensed import CondensedGraph
from repro.graph.kernel import CSRGraph
from repro.relational.aggregates import AggregateQuery
from repro.relational.database import Database

#: ``representation="auto"`` expands when EXP stores at most this many times
#: the condensed edges — the paper's "expand if the increase is small" (20 %)
AUTO_EXPAND_RATIO = 1.2


@dataclass
class ExtractionResult:
    """A graph plus everything we know about how it was produced."""

    graph: Graph
    condensed: CondensedGraph
    plan: ExtractionPlan
    report: ExtractionReport
    representation: str


class GraphGen:
    """End-to-end hidden-graph extraction over a relational database."""

    def __init__(self, database: Database, options: ExtractionOptions | None = None, **option_overrides: Any) -> None:
        if options is not None and option_overrides:
            raise ValueError("pass either an ExtractionOptions object or keyword overrides, not both")
        self._db = database
        self._options = options or ExtractionOptions(**option_overrides)
        self._planner = Planner(database, self._options)
        self._extractor = Extractor(database, self._options)

    # ------------------------------------------------------------------ #
    @property
    def database(self) -> Database:
        return self._db

    @property
    def options(self) -> ExtractionOptions:
        return self._options

    # ------------------------------------------------------------------ #
    def parse(self, query: str | GraphSpec) -> GraphSpec:
        """Parse an extraction query (strings only; specs pass through)."""
        if isinstance(query, GraphSpec):
            return query
        return parse(query)

    def plan(self, query: str | GraphSpec) -> ExtractionPlan:
        """Plan an extraction without executing it."""
        return self._planner.plan(self.parse(query))

    def explain(self, query: str | GraphSpec) -> str:
        """Human-readable plan description plus the SQL that would be issued.

        When a pushdown-capable engine is selected, the statements that
        engine would actually issue — one per distinct query, with a note for
        every segment that shares another's scan — follow the per-segment SQL.
        """
        plan = self.plan(query)
        lines = [plan.describe(), "sql:"]
        lines.extend(f"  {statement}" for statement in plan.sql(self._db))
        if self._options.extract_engine in (ENGINE_AUTO, ENGINE_PUSHDOWN):
            lines.append("pushdown sql:")
            try:
                lines.extend(f"  {statement}" for statement in plan.pushdown_sql(self._db))
            except PushdownUnsupported as exc:
                lines.append(f"  (not pushable: {exc}; the {ENGINE_PYTHON} engine would run)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def extract_condensed(self, query: str | GraphSpec) -> tuple[CondensedGraph, ExtractionReport]:
        """Extract the raw condensed (C-DUP) structure."""
        return self._extractor.extract_condensed(self.plan(query))

    def extract(
        self,
        query: str | GraphSpec,
        representation: str = "cdup",
        dedup_algorithm: str = "greedy_virtual_first",
        bitmap_algorithm: str = "bitmap2",
        ordering: str = "random",
        seed: int = 0,
    ) -> Graph:
        """Extract a graph and return it in the requested representation."""
        return self.extract_with_report(
            query,
            representation=representation,
            dedup_algorithm=dedup_algorithm,
            bitmap_algorithm=bitmap_algorithm,
            ordering=ordering,
            seed=seed,
        ).graph

    def extract_with_report(
        self,
        query: str | GraphSpec,
        representation: str = "cdup",
        dedup_algorithm: str = "greedy_virtual_first",
        bitmap_algorithm: str = "bitmap2",
        ordering: str = "random",
        seed: int = 0,
    ) -> ExtractionResult:
        """Like :meth:`extract` but also return the plan, condensed graph and
        extraction statistics.

        A C-DUP request consults the database's extraction memo for this
        (parsed spec, options) key (:meth:`Database.recall_extraction`),
        which every C-DUP extraction fills.  When all of the conditions
        below hold, the graph handed out last is extended by the rows
        appended since
        (:meth:`Extractor.extend`) into a new graph — the old one never
        changes — and, if the old graph has a cached snapshot, the new
        graph's is that snapshot with the changed rows spliced in
        (:meth:`CSRGraph.splice`): no statement to any engine, no full
        expansion.

        * the fresh plan makes the same condense-vs-expand choice per rule
          (same queries; the size estimates may differ);
        * every query reads one atom (comparisons allowed; no aggregate or
          multi-atom query);
        * every table the plan reads is the same ``Table`` object, at the
          same epoch, and has only grown;
        * nothing was written through the handed-out graph's API since;
        * no Nodes row appended since supplies an endpoint an earlier edge
          row was skipped for, or gives a node new properties.

        Otherwise the cold path runs, with the failed condition in
        ``report.notes``.  :meth:`extract_condensed` never consults the memo:
        it stays the cold reference.
        """
        if representation not in REPRESENTATIONS:
            raise ExtractionError(
                f"unknown representation {representation!r}; expected one of {REPRESENTATIONS}"
            )
        plan = self.plan(query)
        key = (repr(plan.spec), repr(self._options))
        refused = None
        if representation == "cdup":
            memo = self._db.recall_extraction(key)
            if memo is not None:
                extended = self._extend(key, memo, plan)
                if isinstance(extended, ExtractionResult):
                    return extended
                refused = extended
        kept: list[ExtractionMemo] = []
        condensed, report = self._extractor.extract_condensed(plan, kept.append)
        if refused is not None:
            report.notes.append(f"extracted cold: {refused}")

        if representation == "auto":
            representation = "exp" if expansion_ratio(condensed) <= AUTO_EXPAND_RATIO else "cdup"

        graph: Graph
        if representation == "cdup":
            graph = CDupGraph(condensed)
        elif representation == "exp":
            graph = expand(condensed)
            report.expanded_edges = graph.num_edges()
        elif representation == "dedup1":
            graph = deduplicate_dedup1(
                condensed, algorithm=dedup_algorithm, ordering=ordering, seed=seed
            )
        elif representation == "dedup2":
            graph = deduplicate_dedup2(condensed)
        elif representation == "bitmap":
            graph = preprocess_bitmap(condensed, algorithm=bitmap_algorithm)
        else:  # pragma: no cover - guarded above
            raise ExtractionError(f"unhandled representation {representation!r}")

        if representation == "cdup":
            kept[0].hand_out(graph)
            self._db.keep_extraction(key, kept[0])
        return ExtractionResult(
            graph=graph,
            condensed=condensed,
            plan=plan,
            report=report,
            representation=representation,
        )

    def _extend(
        self, key: tuple, memo: ExtractionMemo, plan: ExtractionPlan
    ) -> ExtractionResult | str:
        """Extend ``memo`` to the tables as they are (see
        :meth:`extract_with_report`), or say why not."""
        outcome = _refusal(self._db, memo, plan) or self._extractor.extend(plan, memo)
        if isinstance(outcome, str):
            return outcome
        condensed, report, extended, rewalk = outcome
        graph = CDupGraph(condensed)
        base = memo.graph.cached_snapshot()
        if base is not None:
            graph.adopt_snapshot(CSRGraph.splice(base, graph, rewalk))
        extended.hand_out(graph)
        self._db.keep_extraction(key, extended)
        return ExtractionResult(
            graph=graph, condensed=condensed, plan=plan, report=report, representation="cdup"
        )


def _refusal(db: Database, memo: ExtractionMemo, plan: ExtractionPlan) -> str | None:
    """Why ``memo`` cannot be extended to ``plan`` over ``db`` as it is now,
    from what the code can see; ``None`` when it can.  (The Nodes queries
    come from the spec alone, which is part of the memo's key.)"""
    if memo.graph.write_token() != memo.token:
        return "the graph handed out last was written to since"
    if [(p.condensed, p.queries()) for p in plan.edge_plans] != [
        (p.condensed, p.queries()) for p in memo.plan.edge_plans
    ]:
        return "the plan's condense-vs-expand choice changed"
    for query in plan.queries():
        if isinstance(query, AggregateQuery) or len(query.atoms) != 1:
            return f"query {query.name!r} is not a one-atom selection"
    for name, (table, epoch, rows) in memo.watermarks.items():
        if not db.has_table(name) or db.table(name) is not table:
            return f"table {name!r} was replaced"
        if table.epoch != epoch or table.num_rows < rows:
            return f"table {name!r} was cleared since"
    return None
