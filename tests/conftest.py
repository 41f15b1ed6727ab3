"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.graph.condensed import CondensedGraph
from repro.relational import catalog
from repro.relational.database import Database


# --------------------------------------------------------------------------- #
# forcing the planner's condense-vs-expand rule
# --------------------------------------------------------------------------- #
#: a factor under which every non-empty join is large-output (condensed)
CONDENSE_ALL = 1e-9
#: a factor under which no join is large-output (expanded, Case 2 edges)
CONDENSE_NONE = 1e9


@contextmanager
def large_output_factor(factor: float) -> Iterator[None]:
    """Plan with ``|L ⋈ R| > factor · (|L| + |R|)`` instead of the paper's
    ``2`` while the block runs (the catalog reads the constant per call)."""
    saved = catalog.LARGE_OUTPUT_FACTOR
    catalog.LARGE_OUTPUT_FACTOR = factor
    try:
        yield
    finally:
        catalog.LARGE_OUTPUT_FACTOR = saved


# --------------------------------------------------------------------------- #
# small relational databases
# --------------------------------------------------------------------------- #
@pytest.fixture
def toy_dblp() -> Database:
    """The Figure-1-style toy DBLP database: 6 authors, 3 papers."""
    db = Database("toy_dblp")
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table(
        "AuthorPub",
        [("aid", "int"), ("pid", "int")],
        foreign_keys=[("aid", "Author", "id")],
    )
    db.insert("Author", [(i, f"author_{i}") for i in range(1, 7)])
    # p1: a1..a4, p2: a1, a4, a5, p3: a5, a6
    db.insert(
        "AuthorPub",
        [
            (1, 1), (2, 1), (3, 1), (4, 1),
            (1, 2), (4, 2), (5, 2),
            (5, 3), (6, 3),
        ],
    )
    return db


@pytest.fixture
def toy_univ() -> Database:
    """A tiny university database for the heterogeneous bipartite query."""
    db = Database("toy_univ")
    db.create_table("Student", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("Instructor", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("TookCourse", [("student_id", "int"), ("course_id", "int")])
    db.create_table("TaughtCourse", [("instructor_id", "int"), ("course_id", "int")])
    db.insert("Student", [(1, "s1"), (2, "s2"), (3, "s3")])
    db.insert("Instructor", [(100, "i1"), (101, "i2")])
    db.insert("TookCourse", [(1, 10), (2, 10), (2, 11), (3, 11)])
    db.insert("TaughtCourse", [(100, 10), (101, 11), (100, 11)])
    return db


COAUTHOR_QUERY = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
"""

BIPARTITE_QUERY = """
Nodes(ID, Name) :- Instructor(ID, Name).
Nodes(ID, Name) :- Student(ID, Name).
Edges(ID1, ID2) :- TaughtCourse(ID1, CourseID), TookCourse(ID2, CourseID).
"""


@pytest.fixture
def coauthor_query() -> str:
    return COAUTHOR_QUERY


@pytest.fixture
def bipartite_query() -> str:
    return BIPARTITE_QUERY


# --------------------------------------------------------------------------- #
# condensed graph builders
# --------------------------------------------------------------------------- #
def build_symmetric_condensed(
    seed: int, num_real: int = 40, num_virtual: int = 15, max_size: int = 8
) -> CondensedGraph:
    """Random symmetric single-layer condensed graph (cliques)."""
    rng = random.Random(seed)
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    for label in range(num_virtual):
        members = rng.sample(range(num_real), rng.randint(2, max_size))
        virtual = graph.add_virtual_node(("clique", label))
        for member in members:
            internal = graph.internal(member)
            graph.add_edge(internal, virtual)
            graph.add_edge(virtual, internal)
    return graph


def build_directed_condensed(
    seed: int, num_real: int = 40, num_virtual: int = 15, max_size: int = 8
) -> CondensedGraph:
    """Random non-symmetric single-layer condensed graph."""
    rng = random.Random(seed)
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    for label in range(num_virtual):
        sources = rng.sample(range(num_real), rng.randint(1, max_size))
        targets = rng.sample(range(num_real), rng.randint(1, max_size))
        virtual = graph.add_virtual_node(("attr", label))
        for source in sources:
            graph.add_edge(graph.internal(source), virtual)
        for target in targets:
            graph.add_edge(virtual, graph.internal(target))
    for _ in range(num_real // 8):
        a = rng.randrange(num_real)
        b = rng.randrange(num_real)
        graph.add_edge(graph.internal(a), graph.internal(b))
    return graph


def build_multilayer_condensed(
    seed: int, num_real: int = 30, layer1: int = 8, layer2: int = 6
) -> CondensedGraph:
    """Random two-layer condensed graph (virtual -> virtual edges present)."""
    rng = random.Random(seed)
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    bottom = []
    for label in range(layer2):
        virtual = graph.add_virtual_node(("l2", label))
        bottom.append(virtual)
        for target in rng.sample(range(num_real), rng.randint(1, 6)):
            graph.add_edge(virtual, graph.internal(target))
    for label in range(layer1):
        virtual = graph.add_virtual_node(("l1", label))
        for source in rng.sample(range(num_real), rng.randint(1, 6)):
            graph.add_edge(graph.internal(source), virtual)
        for child in rng.sample(bottom, rng.randint(1, 3)):
            graph.add_edge(virtual, child)
        if rng.random() < 0.5:
            for target in rng.sample(range(num_real), rng.randint(1, 3)):
                graph.add_edge(virtual, graph.internal(target))
    return graph


def build_parity_family(
    kind: str = "symmetric",
    seed: int = 31,
    num_real: int = 40,
    num_virtual: int = 14,
    max_size: int = 7,
    include_dedup2: bool = False,
) -> dict:
    """representation name -> graph, all exposing the same logical graph.

    Shared by the representation-parity suite and the parallel-superstep
    suite.  ``include_dedup2`` adds DEDUP-2 (symmetric inputs only; its
    logical graph drops self-loops, so parity suites compare it against a
    projection while same-graph suites can use it directly).
    """
    from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
    from repro.dedup.expand import expand
    from repro.graph import CDupGraph

    if kind == "symmetric":
        condensed = build_symmetric_condensed(
            seed=seed, num_real=num_real, num_virtual=num_virtual, max_size=max_size
        )
    elif kind == "directed":
        condensed = build_directed_condensed(
            seed=seed, num_real=num_real, num_virtual=num_virtual, max_size=max_size
        )
    else:
        raise ValueError(f"unknown parity family kind {kind!r}")
    family = {
        "EXP": expand(condensed.copy()),
        "C-DUP": CDupGraph(condensed.copy()),
        "DEDUP-1": deduplicate_dedup1(condensed.copy(), seed=5),
        "BITMAP": preprocess_bitmap(condensed.copy()),
    }
    if include_dedup2:
        if kind != "symmetric":
            raise ValueError("DEDUP-2 requires a symmetric condensed input")
        family["DEDUP-2"] = deduplicate_dedup2(condensed.copy())
    return family


@pytest.fixture
def symmetric_condensed() -> CondensedGraph:
    return build_symmetric_condensed(seed=7)


@pytest.fixture
def directed_condensed() -> CondensedGraph:
    return build_directed_condensed(seed=7)


@pytest.fixture
def multilayer_condensed() -> CondensedGraph:
    return build_multilayer_condensed(seed=7)


# --------------------------------------------------------------------------- #
# the Figure 1 condensed graph, by hand
# --------------------------------------------------------------------------- #
@pytest.fixture
def figure1_condensed() -> CondensedGraph:
    """C-DUP for the toy DBLP co-author graph (Figure 1d)."""
    graph = CondensedGraph()
    for author in range(1, 7):
        graph.add_real_node(author)
    papers = {1: [1, 2, 3, 4], 2: [1, 4, 5], 3: [5, 6]}
    for paper, authors in papers.items():
        virtual = graph.add_virtual_node(("PubID", paper))
        for author in authors:
            graph.add_edge(graph.internal(author), virtual)
            graph.add_edge(virtual, graph.internal(author))
    return graph
