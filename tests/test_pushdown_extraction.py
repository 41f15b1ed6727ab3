"""Parity matrix for the SQL pushdown extraction engine.

The contract under test: for every bundled dataset and every rule shape, the
``pushdown`` engine must produce a graph *logically equivalent* to the
``python`` reference engine — same real nodes with the same properties, same
virtual-node label multiset, same condensed-edge multiset (compared via
external IDs, so internal numbering is free to differ), same edge
annotations, and the same Table-1 counters.  ``queries_executed`` and
``seconds`` are engine-specific by design and excluded.

Non-SQL-bindable data must *fall back* to the python engine with a note on
the report — never raise, never emit a wrong graph.  A malformed plan is an
``ExtractionError`` on every engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.core import (
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    ENGINE_SQLITE,
    EXTRACT_ENGINES,
    ExtractionOptions,
)
from repro.core.extractor import Extractor
from repro.core.graphgen import GraphGen
from repro.core.planner import EdgePlan
from repro.datasets import (
    COACTOR_QUERY,
    COAUTHOR_QUERY,
    COENROLLMENT_QUERY,
    COPURCHASE_QUERY,
    generate_dblp,
    generate_imdb,
    generate_tpch,
    generate_univ,
)
from repro.datasets.dblp import (
    AUTHOR_PUBLICATION_BIPARTITE_QUERY,
    RECENT_COAUTHOR_QUERY_TEMPLATE,
    SAME_CONFERENCE_QUERY,
)
from repro.exceptions import ExtractionError, GraphGenError
from repro.graph.condensed import CondensedGraph
from repro.relational.database import Database
from repro.relational.pushdown import PushdownUnsupported, compile_plan, run_pushdown
from repro.relational.query import Comparison
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table

from tests.conftest import CONDENSE_ALL, CONDENSE_NONE, large_output_factor

WEIGHTED_QUERY = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2, count(PubID)) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
"""

STRONG_COLLAB_QUERY = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID), count(PubID) >= 2.
"""

CYCLIC_QUERY = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, A), AuthorPub(A, B), AuthorPub(B, ID1), AuthorPub(ID1, ID2).
"""

#: Table-1 counters that must agree between engines (queries_executed and
#: seconds are engine-specific by design)
REPORT_FIELDS = (
    "real_nodes",
    "virtual_nodes",
    "condensed_edges",
    "skipped_edge_tuples",
    "preprocessing_expanded_virtual_nodes",
    "per_rule_edges",
)


def signature(graph: CondensedGraph):
    """Everything about a condensed graph that is observable through
    external IDs — internal numbering is an engine implementation detail."""
    real = {
        graph.external(node): dict(graph.node_properties.get(node, {}))
        for node in graph.real_nodes()
    }
    virtual = Counter(repr(label) for label in graph.virtual_labels.values())
    edges: Counter = Counter()
    for node in graph.real_nodes():
        source = graph.external(node)
        for target in graph.reachable_real_targets(node):
            edges[(source, graph.external(target))] += 1
    annotations = {
        (graph.external(s), graph.external(t)): props
        for (s, t), props in graph.edge_annotations.items()
    }
    return real, virtual, edges, annotations


def assert_parity(db: Database, query: str, factor: float = 2, **options):
    reference = GraphGen(db, extract_engine=ENGINE_PYTHON, **options)
    pushdown = GraphGen(db, extract_engine=ENGINE_PUSHDOWN, **options)
    with large_output_factor(factor):
        ref_graph, ref_report = reference.extract_condensed(query)
        pd_graph, pd_report = pushdown.extract_condensed(query)
    assert ref_report.engine == ENGINE_PYTHON
    assert pd_report.engine == ENGINE_PUSHDOWN, pd_report.notes
    assert pd_report.notes == []
    assert signature(pd_graph) == signature(ref_graph)
    for name in REPORT_FIELDS:
        assert getattr(pd_report, name) == getattr(ref_report, name), name
    return pd_graph, pd_report


# --------------------------------------------------------------------------- #
# the dataset x rule-shape matrix
# --------------------------------------------------------------------------- #
def _dblp():
    return generate_dblp(num_authors=120, num_publications=200, seed=3)


DATASET_QUERIES = [
    pytest.param(_dblp, COAUTHOR_QUERY, id="dblp-coauthor"),
    pytest.param(_dblp, SAME_CONFERENCE_QUERY, id="dblp-same-conference"),
    pytest.param(_dblp, AUTHOR_PUBLICATION_BIPARTITE_QUERY, id="dblp-bipartite"),
    pytest.param(
        lambda: generate_imdb(num_people=80, num_movies=25, seed=3),
        COACTOR_QUERY,
        id="imdb-coactor",
    ),
    pytest.param(
        lambda: generate_tpch(num_customers=60, num_parts=25, seed=3),
        COPURCHASE_QUERY,
        id="tpch-copurchase",
    ),
    pytest.param(
        lambda: generate_univ(num_students=70, num_instructors=8, num_courses=15, seed=3),
        COENROLLMENT_QUERY,
        id="univ-coenrollment",
    ),
]


@pytest.mark.parametrize("make_db, query", DATASET_QUERIES)
def test_parity_on_bundled_datasets(make_db, query):
    assert_parity(make_db(), query)


@pytest.mark.parametrize("make_db, query", DATASET_QUERIES)
def test_parity_forced_condensed(make_db, query):
    """A tiny factor forces virtual nodes at every join boundary."""
    db = make_db()
    graph, _ = assert_parity(db, query, factor=CONDENSE_ALL)
    with large_output_factor(CONDENSE_ALL):
        plan = GraphGen(db).plan(query)
    if any(ep.condensed and len(ep.segments) > 1 for ep in plan.edge_plans):
        assert graph.num_virtual_nodes > 0


def test_parity_forced_full_expansion():
    """A huge factor keeps every rule in Case 2 (direct real-real edges)."""
    graph, _ = assert_parity(_dblp(), COAUTHOR_QUERY, factor=CONDENSE_NONE)
    assert graph.num_virtual_nodes == 0


def test_parity_filter_segment(toy_dblp):
    """RECENT_COAUTHOR has a middle segment projecting PubID -> PubID: the
    boundary attribute repeats, so virtual identity must key on the boundary
    *index*, not the attribute name."""
    db = _dblp()
    query = RECENT_COAUTHOR_QUERY_TEMPLATE.format(year=2005)
    for preprocess in (False, True):
        assert_parity(db, query, factor=0.01, preprocess=preprocess)


def test_parity_aggregate_annotations():
    graph, _ = assert_parity(_dblp(), WEIGHTED_QUERY)
    assert graph.edge_annotations  # the count(PubID) property landed
    assert all("count_PubID" in props for props in graph.edge_annotations.values())


def test_parity_aggregate_having():
    assert_parity(_dblp(), STRONG_COLLAB_QUERY)


def test_parity_cyclic_full_rule(toy_dblp):
    assert_parity(toy_dblp, CYCLIC_QUERY)


def test_parity_toy_fixtures(toy_dblp, toy_univ, coauthor_query, bipartite_query):
    assert_parity(toy_dblp, coauthor_query)
    assert_parity(toy_univ, bipartite_query)


# --------------------------------------------------------------------------- #
# unknown endpoints: skip on / off, with dangling foreign keys
# --------------------------------------------------------------------------- #
def _dblp_with_dangling():
    db = _dblp()
    db.insert("AuthorPub", [(9001, 1), (9002, 1), (9001, 2)])
    return db


@pytest.mark.parametrize("skip", [True, False], ids=["skip", "add-unknown"])
@pytest.mark.parametrize(
    "query, options",
    [
        pytest.param(COAUTHOR_QUERY, {"factor": 0.01}, id="condensed"),
        pytest.param(COAUTHOR_QUERY, {"factor": CONDENSE_NONE}, id="full"),
        pytest.param(WEIGHTED_QUERY, {}, id="aggregate"),
        pytest.param(SAME_CONFERENCE_QUERY, {"factor": 0.01}, id="multi-segment"),
    ],
)
def test_parity_unknown_endpoints(skip, query, options):
    db = _dblp_with_dangling()
    graph, report = assert_parity(db, query, skip_unknown_endpoints=skip, **options)
    if skip:
        assert report.skipped_edge_tuples > 0
    else:
        assert report.skipped_edge_tuples == 0
        assert graph.has_external(9001) and graph.has_external(9002)


# --------------------------------------------------------------------------- #
# fallback: never raise, never a wrong graph
# --------------------------------------------------------------------------- #
def test_fallback_on_unbindable_data():
    """Tuple-valued cells cannot be mirrored into sqlite; the pushdown engine
    must fall back to the python engine with a note, not fail."""
    db = Database("weird")
    db.create_table("Node", [("id", "any"), ("name", "str")])
    db.create_table("Link", [("a", "any"), ("b", "any")])
    db.insert("Node", [((1, "x"), "n1"), ((2, "y"), "n2")])
    db.insert("Link", [((1, "x"), (2, "y")), ((2, "y"), (1, "x"))])
    query = """
    Nodes(ID, Name) :- Node(ID, Name).
    Edges(A, B) :- Link(A, B).
    """
    gg = GraphGen(db, extract_engine=ENGINE_PUSHDOWN)
    graph, report = gg.extract_condensed(query)
    assert report.engine == ENGINE_PYTHON
    assert len(report.notes) == 1 and "pushdown unavailable" in report.notes[0]
    assert graph.num_real_nodes == 2 and graph.num_condensed_edges == 2


def test_explicit_sqlite_engine_does_not_fall_back():
    """Only pushdown/auto degrade (to the python reference, above); an
    explicit ``extract_engine="sqlite"`` on data sqlite cannot bind surfaces
    the error.  The old second knob that chose a sqlite fallback is gone."""
    db = Database("weird")
    db.create_table("Node", [("id", "any")])
    db.insert("Node", [((1,),), ((2,),)])
    gg = GraphGen(db, extract_engine=ENGINE_SQLITE)
    with pytest.raises(GraphGenError):
        gg.extract_condensed("Nodes(ID) :- Node(ID). Edges(A, A) :- Node(A).")
    with pytest.raises(TypeError):
        ExtractionOptions(backend="sqlite")


def test_malformed_plan_is_not_pushable(toy_dblp):
    """compile_plan rejects a condensed rule with no segments outright, with
    the error every engine gives — not as an unpushable plan to fall back
    from."""
    gg = GraphGen(toy_dblp, extract_engine=ENGINE_PUSHDOWN)
    plan = gg.plan(COAUTHOR_QUERY)
    plan.edge_plans = [
        EdgePlan(rule=ep.rule, condensed=True, segments=[]) for ep in plan.edge_plans
    ]
    with pytest.raises(ExtractionError, match="no segments"):
        compile_plan(toy_dblp, plan)


@pytest.mark.parametrize("engine", EXTRACT_ENGINES)
@pytest.mark.parametrize(
    "malformed, message",
    [
        pytest.param({"condensed": True, "segments": []}, "no segments", id="no-segments"),
        pytest.param({"condensed": False}, "no query", id="no-query"),
    ],
)
def test_malformed_rule_raises_on_every_engine(toy_dblp, engine, malformed, message, monkeypatch):
    """A rule the loader cannot wire is an error, never an empty rule and
    never a pushdown fallback — raised before any row source runs."""
    options = ExtractionOptions(extract_engine=engine)
    plan = GraphGen(toy_dblp, options).plan(COAUTHOR_QUERY)
    plan.edge_plans = [EdgePlan(rule=ep.rule, **malformed) for ep in plan.edge_plans]

    def no_rows(*args, **kwargs):
        raise AssertionError("a row source ran for a malformed plan")

    monkeypatch.setattr("repro.core.extractor.evaluate", no_rows)
    monkeypatch.setattr(Database, "sqlite_backend", no_rows)
    with pytest.raises(ExtractionError, match=message):
        Extractor(toy_dblp, options).extract_condensed(plan)


@pytest.mark.parametrize(
    "misalign",
    [
        pytest.param(lambda rows: rows[:-1], id="one-short"),
        pytest.param(lambda rows: rows + rows[-1:], id="one-over"),
    ],
)
def test_a_row_source_out_of_step_with_the_plan_fails(toy_dblp, misalign, monkeypatch):
    """The loader pairs every plan query with its rows strictly: a row source
    that returns one result too few or too many is an error, not a graph."""
    monkeypatch.setattr(
        "repro.core.extractor.run_pushdown",
        lambda db, plan: (misalign(run_pushdown(db, plan)[0]), 0),
    )
    with large_output_factor(CONDENSE_ALL), pytest.raises(ValueError, match="zip"):
        GraphGen(toy_dblp, extract_engine=ENGINE_PUSHDOWN).extract_condensed(COAUTHOR_QUERY)


def test_auto_engine_runs_pushdown(toy_dblp, coauthor_query):
    gg = GraphGen(toy_dblp, extract_engine="auto")
    _, report = gg.extract_condensed(coauthor_query)
    assert report.engine == ENGINE_PUSHDOWN
    assert report.notes == []


def test_default_engine_unchanged(toy_dblp, coauthor_query):
    """No extract_engine -> the python reference engine."""
    _, report = GraphGen(toy_dblp).extract_condensed(coauthor_query)
    assert report.engine == ENGINE_PYTHON
    _, report = GraphGen(toy_dblp, extract_engine="sqlite").extract_condensed(coauthor_query)
    assert report.engine == ENGINE_SQLITE


# --------------------------------------------------------------------------- #
# provenance surfaces
# --------------------------------------------------------------------------- #
def test_explain_prints_pushdown_sql(toy_dblp, coauthor_query):
    text = GraphGen(toy_dblp, extract_engine=ENGINE_PUSHDOWN).explain(coauthor_query)
    assert "pushdown sql:" in text
    assert "TEMP" not in text and "ORDER BY" not in text
    # plain engines do not advertise a program they will not run
    assert "pushdown sql:" not in GraphGen(toy_dblp).explain(coauthor_query)


def test_explain_reports_unpushable_plans():
    db = Database("empty")
    db.create_table("Node", [("id", "int")])
    gg = GraphGen(db, extract_engine=ENGINE_PUSHDOWN)
    plan = gg.plan("Nodes(ID) :- Node(ID). Edges(A, B) :- Node(A), Node(B).")
    [edge_plan] = plan.edge_plans
    full_query = edge_plan.full_query
    # a value sqlite cannot bind: unpushable, so extraction falls back
    edge_plan.full_query = replace(full_query, comparisons=[Comparison("A", ">=", (1, 2))])
    with pytest.raises(PushdownUnsupported, match="cannot lower"):
        plan.pushdown_sql(db)
    _, report = Extractor(db, ExtractionOptions(extract_engine=ENGINE_PUSHDOWN)).extract_condensed(
        plan
    )
    assert report.engine == ENGINE_PYTHON and "pushdown unavailable" in report.notes[0]
    # a rule with no query is malformed, not unpushable: no engine runs it
    edge_plan.full_query = None
    with pytest.raises(ExtractionError, match="no query"):
        plan.pushdown_sql(db)


def test_pushdown_counts_sql_statements(toy_dblp, coauthor_query):
    """One statement per Nodes rule plus one per *distinct* query of a rule:
    the co-author rule's two segments are one scan."""
    with large_output_factor(CONDENSE_ALL):
        counts = {
            engine: GraphGen(toy_dblp, extract_engine=engine)
            .extract_condensed(coauthor_query)[1]
            .queries_executed
            for engine in (ENGINE_PYTHON, ENGINE_SQLITE, ENGINE_PUSHDOWN)
        }
    assert counts == {ENGINE_PYTHON: 3, ENGINE_SQLITE: 3, ENGINE_PUSHDOWN: 2}


# --------------------------------------------------------------------------- #
# scan sharing: only when the generated texts prove it
# --------------------------------------------------------------------------- #
def _scans(db, query):
    with large_output_factor(CONDENSE_ALL):
        plan = GraphGen(db).plan(query)
    return [
        ([scan.display for scan in rule.scans], [(s.scan, s.swapped) for s in rule.segments])
        for rule in compile_plan(db, plan).rules
    ]


def test_symmetric_rule_shares_one_scan_swapped(toy_dblp, coauthor_query):
    [(scans, segments)] = _scans(toy_dblp, coauthor_query)
    assert scans == ["SELECT DISTINCT A.aid AS c0, A.pid AS c1 FROM AuthorPub A"]
    assert segments == [(0, False), (0, True)]
    with large_output_factor(CONDENSE_ALL):
        text = GraphGen(toy_dblp, extract_engine=ENGINE_PUSHDOWN).explain(coauthor_query)
    assert text.count("FROM AuthorPub A") == 3  # two under "sql:", one under "pushdown sql:"
    assert "segment 1 shares segment 0's scan, reading its rows as (c1, c0)" in text


def test_rules_that_only_look_symmetric_do_not_share(toy_dblp, toy_univ, bipartite_query):
    # a selection on one side only: same table, different text
    one_sided = """
    Nodes(ID, Name) :- Author(ID, Name).
    Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), ID1 >= 2.
    """
    [(scans, segments)] = _scans(toy_dblp, one_sided)
    assert len(scans) == 2 and segments == [(0, False), (1, False)]
    assert_parity(toy_dblp, one_sided, factor=CONDENSE_ALL)
    # two different tables
    for scans, segments in _scans(toy_univ, bipartite_query):
        assert len(scans) == len(segments)
        assert not any(swapped for _, swapped in segments)


def test_same_conference_chain_shares_both_mirrored_pairs():
    """A(ID1,P1) Pub(P1,C) | Pub(P2,C) A(ID2,P2): four segments, two scans."""
    db = _dblp()
    [(scans, segments)] = _scans(db, SAME_CONFERENCE_QUERY)
    assert len(segments) == 4 and len(scans) == 2
    assert segments == [(0, False), (1, False), (1, True), (0, True)]


def test_multi_atom_mirror_segments_share():
    """Co-purchase: Orders ⋈ LineItem on one side, LineItem ⋈ Orders on the
    other — one query written from its two ends, so one scan."""
    db = generate_tpch(num_customers=60, num_parts=25, seed=3)
    plan = GraphGen(db).plan(COPURCHASE_QUERY)
    [rule] = compile_plan(db, plan).rules
    assert [len(segment.query.atoms) for segment in plan.edge_plans[0].segments] == [2, 2]
    assert len(rule.scans) == 1
    assert [(s.scan, s.swapped) for s in rule.segments] == [(0, False), (0, True)]


# --------------------------------------------------------------------------- #
# semantics of the one loader, on every engine's rows
# --------------------------------------------------------------------------- #
def test_parity_null_join_values():
    """A NULL join value at a chain boundary is one virtual node, keyed
    ``None`` — on every engine."""
    db = Database("nulls")
    db.create_table("Node", [("id", "int")])
    db.add_table(
        Table(TableSchema("R", [Column("a", "int"), Column("p", "int", nullable=True)]))
    )
    db.insert("Node", [(i,) for i in range(5)])
    db.insert("R", [(0, None), (1, None), (2, None), (3, 7), (4, 7), (0, 7), (0, None)])
    query = "Nodes(ID) :- Node(ID). Edges(A, B) :- R(A, P), R(B, P)."
    graph, report = assert_parity(db, query, factor=CONDENSE_ALL, preprocess=False)
    assert sorted(graph.virtual_labels.values(), key=repr) == [("P", 7), ("P", None)]
    null_node = next(v for v, label in graph.virtual_labels.items() if label == ("P", None))
    assert sorted(graph.external(n) for n in graph.inn(null_node)) == [0, 1, 2]
    assert sorted(graph.external(n) for n in graph.out(null_node)) == [0, 1, 2]
    with large_output_factor(CONDENSE_ALL):
        sqlite_graph, _ = GraphGen(
            db, extract_engine=ENGINE_SQLITE, preprocess=False
        ).extract_condensed(query)
    assert signature(sqlite_graph) == signature(graph)


def test_parity_cross_rule_duplicate_direct_edges(toy_dblp):
    """Two rules producing the same direct real->real edges: the second
    rule adds none of them again, and says so in ``per_rule_edges``."""
    query = """
    Nodes(ID, Name) :- Author(ID, Name).
    Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
    Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID), PubID >= 0.
    Edges(ID1, ID2, count(PubID)) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
    """
    graph, report = assert_parity(toy_dblp, query, factor=CONDENSE_NONE)
    first, second, third = report.per_rule_edges
    assert first > 0 and second == 0 and third == 0
    assert report.condensed_edges == first
    assert len(graph.edge_annotations) == first  # the aggregate rule still annotated them


def test_extraction_is_deterministic():
    """Same table content in the same row order: the same graph down to
    internal IDs and adjacency order (arrival order, as in the row engines)."""
    db = _dblp_with_dangling()
    for factor, options in ((CONDENSE_ALL, {}), (2, {"skip_unknown_endpoints": False})):
        with large_output_factor(factor):
            runs = [
                GraphGen(db, extract_engine=ENGINE_PUSHDOWN, **options).extract_condensed(
                    SAME_CONFERENCE_QUERY
                )[0]
                for _ in range(2)
            ]
        first, second = runs
        assert first.succ == second.succ and first.pred == second.pred
        assert first.virtual_labels == second.virtual_labels
        assert list(first.external_ids()) == list(second.external_ids())
