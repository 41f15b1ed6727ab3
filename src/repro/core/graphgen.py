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
from repro.core.extractor import ExtractionReport, Extractor
from repro.core.planner import ExtractionPlan, Planner
from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.dedup.expand import expand, expansion_ratio
from repro.dsl.ast import GraphSpec
from repro.dsl.parser import parse
from repro.exceptions import ExtractionError
from repro.graph.api import Graph
from repro.graph.cdup import CDupGraph
from repro.graph.condensed import CondensedGraph
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
        extraction statistics."""
        if representation not in REPRESENTATIONS:
            raise ExtractionError(
                f"unknown representation {representation!r}; expected one of {REPRESENTATIONS}"
            )
        plan = self.plan(query)
        condensed, report = self._extractor.extract_condensed(plan)

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

        return ExtractionResult(
            graph=graph,
            condensed=condensed,
            plan=plan,
            report=report,
            representation=representation,
        )
