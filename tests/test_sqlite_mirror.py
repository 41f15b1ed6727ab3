"""The SQLite mirror follows its database; extraction only reads it.

Work pins — every assertion is a count of statements or rows as sqlite saw
them (``Connection.set_trace_callback`` on every connection the backend
opens), none reads a clock — plus the regression test for the process crash
the rebuilt-on-every-change mirror had: it runs in a subprocess, so a crash
fails one test instead of killing pytest.

A new session after ``db.insert`` extends the last extraction instead of
reading the tables again: no statement, no snapshot build, a re-walk of
exactly the vertices whose walk reads a changed adjacency list, and a copy
of exactly the adjacency rows it writes (every other row stays shared with
the graph handed out before, which never changes); each condition that
forces the cold path says so in the report.
"""

from __future__ import annotations

import os
import random
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import ExtractionOptions, GraphGen
from repro.core.extractor import Extractor
from repro.exceptions import QueryError
from repro.graph import CDupGraph, logical_edge_set
from repro.graph.condensed import CondensedCounters
from repro.graph.kernel import CSRGraph
from repro.relational import sqlite_backend
from repro.relational.database import Database
from repro.session import GraphSession

from tests.conftest import CONDENSE_ALL, CONDENSE_NONE, large_output_factor

SRC = Path(__file__).resolve().parent.parent / "src"

COOCCURRENCE = """
Nodes(ID, Name) :- Entity(ID, Name).
Edges(ID1, ID2) :- R(ID1, P), R(ID2, P).
"""


def make_db() -> Database:
    """30 entities; R holds 60 distinct (id, p) pairs, each written 3 times."""
    db = Database("pins")
    db.create_table("Entity", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("R", [("id", "int"), ("p", "int")])
    db.create_table("Other", [("x", "int")])
    db.insert("Entity", [(i, f"e{i}") for i in range(30)])
    db.insert("R", [(i % 30, i % 20) for i in range(60)] * 3)
    db.insert("Other", [(i,) for i in range(5)])
    return db


@pytest.fixture
def statements(monkeypatch):
    """Every statement executed on any connection a mirror opens from now
    on, bound values expanded, in order."""
    log: list[str] = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.set_trace_callback(log.append)
        return connection

    monkeypatch.setattr(sqlite_backend.sqlite3, "connect", traced_connect)
    return log


def starting(log: list[str], prefix: str) -> list[str]:
    return [statement for statement in log if statement.startswith(prefix)]


# --------------------------------------------------------------------------- #
# the extraction program
# --------------------------------------------------------------------------- #
def test_cooccurrence_rule_is_one_nodes_statement_and_one_distinct_scan(statements, monkeypatch):
    db = make_db()
    db.sqlite_backend()
    # no planner sends sqlite a statement
    plan = GraphGen(db).plan(COOCCURRENCE)
    fetched: list[int] = []
    execute_sql = sqlite_backend.SQLiteBackend.execute_sql

    def counting(self, sql, parameters=()):
        rows = execute_sql(self, sql, parameters)
        fetched.append(len(rows))
        return rows

    monkeypatch.setattr(sqlite_backend.SQLiteBackend, "execute_sql", counting)
    del statements[:]
    pushdown = Extractor(db, ExtractionOptions(extract_engine="pushdown"))
    graph, report = pushdown.extract_condensed(plan)

    assert report.engine == "pushdown" and report.notes == []
    assert statements == [
        "SELECT DISTINCT A.id AS ID, A.name AS Name FROM Entity A;",
        "SELECT DISTINCT A.id AS c0, A.p AS c1 FROM R A;",
    ]
    assert report.queries_executed == 2
    # exactly the DISTINCT rows came back: 30 entities, 60 of R's 180 rows
    assert fetched == [30, 60]
    # both halves of the rule were wired from that one scan
    assert report.per_rule_edges == [120]
    reference = Extractor(db).extract_condensed(plan)[1]
    assert reference.queries_executed == 3
    assert (report.condensed_edges, report.virtual_nodes) == (
        reference.condensed_edges,
        reference.virtual_nodes,
    )


def test_extraction_writes_nothing_to_the_mirror(statements):
    db = make_db()
    db.sqlite_backend()
    del statements[:]
    for engine in ("sqlite", "pushdown", "auto"):
        with large_output_factor(CONDENSE_ALL):
            GraphGen(db, extract_engine=engine).extract_condensed(COOCCURRENCE)
    assert statements and all(s.startswith("SELECT ") for s in statements), statements
    assert not [s for s in statements if "TEMP" in s.upper()]


# --------------------------------------------------------------------------- #
# following the database
# --------------------------------------------------------------------------- #
def test_appended_rows_are_the_only_rows_inserted(statements):
    db = make_db()
    mirror = db.sqlite_backend()
    assert len(starting(statements, "INSERT INTO R ")) == 180
    del statements[:]

    assert db.sqlite_backend() is mirror
    assert statements == []  # nothing changed: nothing executed

    db.insert("R", [(i % 30, 100 + i) for i in range(200)])
    assert db.sqlite_backend() is mirror
    assert len(starting(statements, "INSERT INTO R ")) == 200
    assert not [s for s in statements if "Entity" in s or "Other" in s or "TABLE" in s]
    assert mirror.row_count("R") == 380


def test_clear_reloads_that_table_only(statements):
    db = make_db()
    mirror = db.sqlite_backend()
    db.table("R").clear()
    db.insert("R", [(1, 1), (2, 1)])
    del statements[:]

    assert db.sqlite_backend() is mirror
    assert starting(statements, "DROP TABLE") == ["DROP TABLE IF EXISTS R"]
    assert len(starting(statements, "CREATE TABLE")) == 1
    assert len(starting(statements, "INSERT INTO")) == 2
    assert mirror.execute_sql("SELECT * FROM R ORDER BY id") == [(1, 1), (2, 1)]
    assert mirror.row_count("Entity") == 30


def test_dropped_added_and_replaced_tables_are_followed(statements):
    db = make_db()
    mirror = db.sqlite_backend()
    db.drop_table("Other")
    db.create_table("Extra", [("y", "int")])
    db.insert("Extra", [(7,)])
    replaced = db.table("R").copy()  # same name and rows, another Table object
    db.drop_table("R")
    db.add_table(replaced)
    del statements[:]

    assert db.sqlite_backend() is mirror
    assert sorted(starting(statements, "DROP TABLE")) == [
        "DROP TABLE IF EXISTS Extra",
        "DROP TABLE IF EXISTS R",
        "DROP TABLE Other",
    ]
    assert len(starting(statements, "INSERT INTO R ")) == 180
    assert not starting(statements, "INSERT INTO Entity")
    assert mirror.execute_sql("SELECT y FROM Extra") == [(7,)]
    with pytest.raises(QueryError, match="no such table"):
        mirror.execute_sql("SELECT * FROM Other")


def test_unmirrorable_table_is_retried_not_half_kept():
    db = make_db()
    mirror = db.sqlite_backend()
    db.create_table("Weird", [("v", "any")])
    db.insert("Weird", [(1,), ((2, 3),)])  # a tuple cell: sqlite cannot bind it
    with pytest.raises(QueryError, match="cannot mirror table 'Weird'"):
        db.sqlite_backend()
    assert mirror.row_count("R") == 180  # the tables before it are intact
    db.table("Weird").clear()
    db.insert("Weird", [(4,)])
    assert db.sqlite_backend().execute_sql("SELECT v FROM Weird") == [(4,)]


# --------------------------------------------------------------------------- #
# the planner follows the database without asking the mirror
# --------------------------------------------------------------------------- #
GROWTH = {
    "db.insert": lambda db, rows: db.insert("R", rows),
    "table.insert_many": lambda db, rows: db.table("R").insert_many(rows),
}


@pytest.mark.parametrize("grow", sorted(GROWTH))
@pytest.mark.parametrize("engine", ["python", "pushdown"])
def test_a_reused_graphgen_replans_after_a_table_grew(statements, engine, grow):
    """A reused ``GraphGen`` once planned condense-vs-expand from the row
    counts it had read before ``db.insert``; the python planner's catalog
    kept them even for a fresh one after ``Table.insert_many``.  Plans come
    from the catalog's exact counts, keyed on the database version, and no
    engine's planner sends the mirror a statement."""
    db = Database("replan")
    db.create_table("Entity", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("R", [("id", "int"), ("p", "int")])
    db.insert("Entity", [(i, f"e{i}") for i in range(40)])
    db.insert("R", [(i, i % 20) for i in range(40)])
    db.sqlite_backend()
    del statements[:]
    gen = GraphGen(db, extract_engine=engine)

    def large_output_joins(plan):
        return [decision.is_large_output for decision in plan.edge_plans[0].decisions]

    # 20 keys x 2 x 2 = 80 rows out, under 2 * (40 + 40)
    assert large_output_joins(gen.plan(COOCCURRENCE)) == [False]
    assert large_output_joins(gen.plan(COOCCURRENCE)) == [False]

    GROWTH[grow](db, [(i % 40, i % 20) for i in range(360)])
    # 20 keys x 20 x 20 = 8 000 rows out, over 2 * (400 + 400): the join is cut
    assert large_output_joins(gen.plan(COOCCURRENCE)) == [True]
    assert large_output_joins(GraphGen(db, extract_engine=engine).plan(COOCCURRENCE)) == [True]
    assert statements == []


# --------------------------------------------------------------------------- #
# a table that only grew extends the last extraction
# --------------------------------------------------------------------------- #
def new_pairs(count: int) -> list[tuple[int, int]]:
    """``count`` (id, p) pairs R does not hold yet: entity 1 joins key 0
    (whose members are 0, 10 and 20), entities 0-9 share new keys 20-39."""
    return [(1, 0)] + [(i % 10, 20 + i // 10) for i in range(count - 1)]


def walk_reads(graph, node: int) -> set[int]:
    """The nodes whose out-list the walk from real ``node`` reads: itself
    and every virtual node it reaches through virtual nodes."""
    seen, stack = {node}, [node]
    while stack:
        for target in graph.succ[stack.pop()]:
            if target < 0 and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def touched_vertices(old, new) -> int:
    """Brute force: the vertices of ``new`` whose walk reads an out-list that
    differs from ``old``'s, plus the vertices ``old`` did not have."""
    changed = {
        node for node in set(old.succ) | set(new.succ) if old.succ.get(node) != new.succ.get(node)
    }
    return sum(
        1
        for node in new.real_nodes()
        if node not in old.succ or walk_reads(new, node) & changed
    )


def cold_edges(db: Database, query: str, **options) -> set:
    graph, _ = GraphGen(db, extract_engine="python", **options).extract_condensed(query)
    return logical_edge_set(CDupGraph(graph))


def test_a_new_session_extends_the_last_extraction(statements):
    db = make_db()
    first = GraphSession(db, extract_engine="pushdown").graph(COOCCURRENCE)
    first.snapshot()
    assert first.extraction.report.queries_executed == 2
    db.insert("R", new_pairs(200))
    del statements[:]
    builds, rewalks = CSRGraph.build_count, CSRGraph.rewalk_count

    second = GraphSession(db, extract_engine="pushdown").graph(COOCCURRENCE)
    csr = second.snapshot()

    assert statements == []  # the mirror was not even brought up to date
    report = second.extraction.report
    assert report.queries_executed == 0
    assert report.notes and report.notes[0].startswith("extended the last extraction")
    assert CSRGraph.build_count == builds
    walked = CSRGraph.rewalk_count - rewalks
    assert walked == touched_vertices(first.extraction.condensed, second.extraction.condensed)
    assert walked == len({0, 10, 20} | set(range(10)))
    assert csr.content_hash == CSRGraph.from_graph(second.graph).content_hash
    assert logical_edge_set(second.graph) == cold_edges(db, COOCCURRENCE)
    assert report.condensed_edges == second.extraction.condensed.num_condensed_edges


def test_a_graph_handed_out_never_changes_under_a_later_delta():
    db = make_db()
    handle = GraphSession(db).graph(COOCCURRENCE)
    graph = handle.graph
    rows = {vertex: list(graph.get_neighbors(vertex)) for vertex in graph.get_vertices()}
    digest = handle.snapshot().content_hash
    db.insert("R", new_pairs(200))

    later = GraphSession(db).graph(COOCCURRENCE)
    assert later.graph is not graph
    assert later.extraction.report.queries_executed == 0
    assert {vertex: list(graph.get_neighbors(vertex)) for vertex in graph.get_vertices()} == rows
    assert graph.snapshot() is handle.snapshot() and handle.snapshot().content_hash == digest

    # the memo now holds ``later``; writing through its API sends the next cold
    later.graph.add_edge(0, 1000)
    again = GraphSession(db).graph(COOCCURRENCE)
    assert again.extraction.report.queries_executed == 3
    assert again.extraction.report.notes == [
        "extracted cold: the graph handed out last was written to since"
    ]


def test_every_handle_of_a_chain_of_extensions_stays_intact():
    """Graphs extended from one another share every row neither wrote: each
    keeps the snapshot it had when handed out, and a write through an old
    one's API never reaches a newer one."""
    db = make_db()
    handles = [GraphSession(db).graph(COOCCURRENCE)]
    digests = [handles[0].snapshot().content_hash]
    for batch in range(1, 4):
        # entity ``batch`` joins every old key; three entities share a new one
        rows = [(batch, p) for p in range(20)]
        db.insert("R", rows + [((batch + i) % 30, 40 + batch) for i in range(3)])
        handle = GraphSession(db).graph(COOCCURRENCE)
        assert handle.extraction.report.notes[0].startswith("extended the last extraction")
        handles.append(handle)
        digests.append(handle.snapshot().content_hash)
        for old, digest in zip(handles, digests):
            assert CSRGraph.from_graph(old.graph).content_hash == digest

    for old in (handles[0], handles[2]):
        graph = old.graph
        graph.add_edge(0, 29)
        graph.delete_edge(3, next(iter(graph.get_neighbors(3))))
        graph.delete_vertex(1)
        graph.set_property(2, "Name", "renamed")
    for index in (1, 3):
        assert CSRGraph.from_graph(handles[index].graph).content_hash == digests[index]
    newest = handles[-1].graph
    assert newest.has_vertex(1) and newest.get_property(2, "Name") == "e2"

    # the newest graph was not written, so the next session extends it
    db.insert("R", [(1, 44), (2, 44)])
    latest = GraphSession(db).graph(COOCCURRENCE)
    assert latest.extraction.report.queries_executed == 0
    assert logical_edge_set(latest.graph) == cold_edges(db, COOCCURRENCE)


def dup_database(entities: int, pairs: int, keys: int, seed: int = 11) -> tuple[Database, list]:
    """``extract_dup``'s shape at ``entities`` entities: distinct random
    (id, p) pairs, each written five times, and a 200-row batch of new pairs."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    while len(seen) < pairs:
        seen.add((rng.randrange(entities), rng.randrange(keys)))
    batch: list[tuple[int, int]] = []
    while len(batch) < 200:
        pair = (rng.randrange(entities), rng.randrange(keys))
        if pair not in seen:
            seen.add(pair)
            batch.append(pair)
    db = Database("dup")
    db.create_table("Entity", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("R", [("id", "int"), ("p", "int")])
    db.insert("Entity", [(i, f"e{i}") for i in range(entities)])
    db.insert("R", sorted(seen - set(batch)) * 5)
    return db, batch


def test_an_extension_copies_only_the_rows_it_writes():
    """The extended graph starts as a copy sharing every row of the last
    one: one 200-row batch copies exactly the adjacency rows it writes
    (``CondensedCounters.row_copies``), a few percent of them."""
    db, batch = dup_database(entities=5_000, pairs=10_500, keys=3_500)
    old = GraphSession(db).graph(COOCCURRENCE).extraction.condensed
    db.insert("R", batch)
    copies = CondensedCounters.row_copies
    handle = GraphSession(db).graph(COOCCURRENCE)
    copies = CondensedCounters.row_copies - copies
    assert handle.extraction.report.notes[0].startswith("extended the last extraction")

    # a row is written when it is no longer the old graph's list; a revived
    # virtual node that Step 6 expands again leaves its members' rows
    # written with their old contents
    new = handle.extraction.condensed
    written = changed = 0
    for rows, old_rows in ((new.succ, old.succ), (new.pred, old.pred)):
        for node, row in rows.items():
            if node in old_rows:
                written += row is not old_rows[node]
                changed += row != old_rows[node]
    assert copies == written >= changed > 0
    assert copies <= 0.1 * (len(new.succ) + len(new.pred))


def _clear_and_refill(db, first):
    rows = db.table("R").rows()[:]
    db.table("R").clear()
    db.insert("R", rows + [(0, 99)])


def _write_through_the_api(db, first):
    first.graph.set_property(0, "Name", "renamed")
    db.insert("R", [(0, 99)])


def _grow_the_node_a_row_was_skipped_for(db, first):
    db.insert("Entity", [(30, "e30")])


#: case -> (setup before the first extraction, change after it, query, the note)
COLD_CASES = {
    "clear + refill": (None, _clear_and_refill, COOCCURRENCE, "table 'R' was cleared since"),
    "flipped condense choice": (
        None,
        lambda db, first: db.insert("R", [(0, 99)]),
        COOCCURRENCE,
        "the plan's condense-vs-expand choice changed",
    ),
    "aggregate rule": (
        None,
        lambda db, first: db.insert("R", [(0, 99), (1, 99)]),
        "Nodes(ID, Name) :- Entity(ID, Name). Edges(A, B, count(P)) :- R(A, P), R(B, P).",
        "query 'edges_aggregate' is not a one-atom selection",
    ),
    "graph written through its API": (
        None,
        _write_through_the_api,
        COOCCURRENCE,
        "the graph handed out last was written to since",
    ),
    "node growth after a skipped row": (
        lambda db: db.insert("R", [(30, 0)]),
        _grow_the_node_a_row_was_skipped_for,
        COOCCURRENCE,
        "an edge row was skipped for node 30, which is now in the Nodes rows",
    ),
}


@pytest.mark.parametrize("case", sorted(COLD_CASES))
def test_each_condition_the_delta_path_needs_sends_it_cold(case):
    setup, change, query, note = COLD_CASES[case]
    db = make_db()
    if setup is not None:
        setup(db)
    first = GraphSession(db).graph(query)
    change(db, first)
    flipped = large_output_factor(CONDENSE_NONE if case == "flipped condense choice" else 2)
    with flipped:
        handle = GraphSession(db).graph(query)
        expected = cold_edges(db, query)
    report = handle.extraction.report
    assert report.notes == [f"extracted cold: {note}"]
    assert report.queries_executed > 0
    assert logical_edge_set(handle.graph) == expected
    assert handle.graph.get_property(0, "Name") == "e0"


# --------------------------------------------------------------------------- #
# one thread extracts while another appends and syncs
# --------------------------------------------------------------------------- #
RACE = textwrap.dedent(
    """
    import faulthandler, random, sys, threading, time

    from repro.core import GraphGen
    from repro.relational.database import Database

    faulthandler.enable()
    engine = sys.argv[1]
    query = "Nodes(ID, Name) :- Entity(ID, Name). Edges(ID1, ID2) :- R(ID1, P), R(ID2, P)."
    rng = random.Random(7)
    db = Database("race")
    db.create_table("Entity", [("id", "int"), ("name", "str")], primary_key="id")
    db.insert("Entity", [(i, f"entity_{i}") for i in range(3000)])
    db.create_table("R", [("id", "int"), ("p", "int")])
    db.insert("R", [(rng.randrange(3000), rng.randrange(12)) for _ in range(300_000)])

    def structure(graph):
        # the condensed structure by external IDs and virtual labels (the
        # expanded graph has nine million edges)
        def name(node):
            return graph.external(node) if node >= 0 else graph.virtual_labels[node]

        return sorted(
            (repr(name(node)), sorted(repr(name(target)) for target in targets))
            for node, targets in graph.succ.items()
        )

    def extract(engine):
        # Step 6 would expand the one-member virtual node a torn read leaves
        extractor = GraphGen(db, extract_engine=engine, preprocess=False)
        return structure(extractor.extract_condensed(query)[0])

    db.sqlite_backend()
    before = extract("python")
    result = []
    worker = threading.Thread(target=lambda: result.append(extract(engine)))
    worker.start()
    time.sleep(0.15)
    # a pair on a new join key: segment one seeing it and segment two not
    # (or the reverse) would be a graph of no table state
    db.insert("R", [(1, 999)])
    db.sqlite_backend()
    worker.join(timeout=120)
    assert not worker.is_alive() and result, "the extraction did not finish"
    after = extract("python")
    assert before != after
    assert result[0] in (before, after), "a mix of two table states"
    assert extract(engine) == after
    print("ok")
    """
)


@pytest.mark.parametrize("engine", ["pushdown", "sqlite"])
def test_append_and_sync_during_an_extraction(engine):
    """At the parent ``Database.sqlite_backend()`` closed the connection the
    other thread was executing on: exit 139, both engines."""
    completed = subprocess.run(
        [sys.executable, "-c", RACE, engine],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (completed.returncode, completed.stderr[-2000:])
    assert completed.stdout.strip() == "ok"
