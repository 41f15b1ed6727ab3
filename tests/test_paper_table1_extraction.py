"""Table 1 — condensed (C-DUP) vs full (EXP) extraction, per engine.

For each of the four small datasets (DBLP co-authors, IMDB co-actors, TPCH
co-purchasers, UNIV co-enrolment) this module extracts the graph twice:

* the condensed representation (the paper's C-DUP column), and
* the fully expanded graph (the paper's "Full Graph" column),

and compares the number of stored edges.  The paper's headline shape — the
condensed representation stores dramatically fewer edges, with the gap widest
for dense datasets like TPCH — must hold.

The module additionally runs the ``python`` reference engine (every plan
query evaluated in-process) against the SQL ``pushdown`` engine on every
dataset (the Table-1 counters must agree exactly), and pins the *work*
pushdown does on a denormalised fact table — 120 000 rows collapsing to
34 769 distinct pairs, the regime where one C-level ``SELECT DISTINCT``
replaces a per-row Python join: one scan of the fact table, exactly the
distinct rows fetched.  No
assertion here reads a clock; extraction timings are ``bench/``'s
(``extract.python_s`` / ``extract.pushdown_s`` per workload).
"""

from __future__ import annotations

import functools

import pytest

from repro.core import ExtractionOptions, GraphGen
from repro.core.extractor import Extractor
from repro.relational.database import Database
from repro.relational.sqlite_backend import SQLiteBackend
from repro.utils.rand import SeededRandom

from tests.conftest import SMALL_DATASETS

#: the Table-1 counters every engine must agree on
COUNTERS = ("real_nodes", "virtual_nodes", "condensed_edges", "skipped_edge_tuples", "per_rule_edges")


@pytest.fixture(scope="module")
def extract(small_datasets):
    """``extract(dataset, representation)``, each extraction run once per
    module."""

    @functools.cache
    def run(dataset: str, representation: str):
        db, query = small_datasets[dataset]
        gg = GraphGen(db, preprocess=False)
        return gg.extract_with_report(query, representation=representation)

    return run


@pytest.mark.parametrize("dataset", SMALL_DATASETS)
def test_condensed_extraction(extract, dataset):
    result = extract(dataset, "cdup")
    assert result.report.real_nodes > 0
    assert result.report.condensed_edges > 0


@pytest.mark.parametrize("dataset", SMALL_DATASETS)
def test_full_extraction(extract, dataset):
    result = extract(dataset, "exp")
    assert result.graph.num_edges() > 0


@pytest.mark.parametrize("dataset", SMALL_DATASETS)
def test_engine_comparison(small_datasets, dataset):
    """python vs pushdown on each Table-1 dataset: identical counters."""
    db, query = small_datasets[dataset]
    reports = {}
    for engine in ("python", "pushdown"):
        gg = GraphGen(db, preprocess=False, extract_engine=engine)
        _, reports[engine] = gg.extract_condensed(query)
    python, pushdown = reports["python"], reports["pushdown"]
    assert pushdown.engine == "pushdown" and pushdown.notes == []
    # the pushdown graph is pinned to the reference engine's counters
    for field in COUNTERS:
        assert getattr(pushdown, field) == getattr(python, field), field


def _denormalized_fact_db(num_entities: int, num_keys: int, rows: int, seed: int = 7) -> Database:
    """The largest synthetic: a fact table with massive row duplication, so
    extraction cost is dominated by scanning + deduplicating rows rather
    than by loading the (small) resulting edge set."""
    rng = SeededRandom(seed)
    db = Database("denormalized_fact")
    db.create_table("Entity", [("id", "int"), ("name", "str")], primary_key="id")
    db.insert("Entity", [(i, f"entity_{i}") for i in range(num_entities)])
    db.create_table("R", [("id", "int"), ("p", "int")], foreign_keys=[("id", "Entity", "id")])
    db.insert(
        "R",
        [
            (rng.randint(0, num_entities - 1), rng.randint(0, num_keys - 1))
            for _ in range(rows)
        ],
    )
    return db


LARGE_SYNTHETIC_QUERY = """
Nodes(ID, Name) :- Entity(ID, Name).
Edges(ID1, ID2) :- R(ID1, P), R(ID2, P).
"""


def test_pushdown_speedup_on_largest_synthetic(monkeypatch):
    """What makes pushdown fast on a duplicated fact table, pinned as work
    instead of raced against a clock: the two-segment co-occurrence rule is
    one ``SELECT DISTINCT`` over ``R``, python sees exactly the distinct rows
    — never the 120 000 stored ones — and the graph's counters are the
    reference engine's."""
    db = _denormalized_fact_db(num_entities=3000, num_keys=12, rows=120_000)
    distinct_pairs = len(set(db.table("R").rows()))
    assert distinct_pairs < db.table("R").num_rows / 3
    # planned by the python engine's planner: no catalog probe goes to sqlite
    plan = GraphGen(db, preprocess=False).plan(LARGE_SYNTHETIC_QUERY)
    assert [len(edge_plan.segments) for edge_plan in plan.edge_plans] == [2]
    db.sqlite_backend()

    reads: list[tuple[str, int]] = []
    execute_sql = SQLiteBackend.execute_sql

    def recording(self, sql, parameters=()):
        rows = execute_sql(self, sql, parameters)
        reads.append((sql, len(rows)))
        return rows

    monkeypatch.setattr(SQLiteBackend, "execute_sql", recording)
    reports = {
        engine: Extractor(
            db, ExtractionOptions(preprocess=False, extract_engine=engine)
        ).extract_condensed(plan)[1]
        for engine in ("python", "pushdown")
    }
    python, pushdown = reports["python"], reports["pushdown"]
    assert pushdown.engine == "pushdown" and pushdown.notes == []
    assert len(reads) == pushdown.queries_executed == 2  # Nodes + one scan
    assert [rows for sql, rows in reads if " FROM R " in sql] == [distinct_pairs]
    assert [rows for sql, rows in reads if " FROM Entity " in sql] == [3000]
    for field in COUNTERS:
        assert getattr(pushdown, field) == getattr(python, field), field
    assert pushdown.condensed_edges == 2 * distinct_pairs


def test_table1_summary(extract):
    """Check the Table 1 shape."""
    for dataset in SMALL_DATASETS:
        condensed = extract(dataset, "cdup").report.condensed_edges
        full = extract(dataset, "exp").graph.num_edges()
        assert condensed <= full, f"{dataset}: condensed stores more edges than EXP"
        # the dense datasets must show a substantial explosion factor
        if dataset in ("TPCH", "IMDB"):
            assert full >= 2 * condensed
