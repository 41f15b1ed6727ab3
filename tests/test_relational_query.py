"""Tests for the conjunctive-query representation and executor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.query import (
    Comparison,
    ConjunctiveQuery,
    Const,
    QueryAtom,
    evaluate,
    evaluate_bruteforce,
)


@pytest.fixture
def db() -> Database:
    db = Database("q")
    db.create_table("R", [("a", "int"), ("b", "int")])
    db.create_table("S", [("b", "int"), ("c", "int")])
    db.insert("R", [(1, 10), (2, 10), (3, 20), (4, 30)])
    db.insert("S", [(10, 100), (20, 200), (20, 201), (40, 400)])
    return db


class TestQueryConstruction:
    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(["Z"], [QueryAtom("R", ("X", "Y"))])

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(["X"], [])

    def test_comparison_on_unbound_variable_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                ["X"], [QueryAtom("R", ("X", "Y"))], [Comparison("Z", ">", 1)]
            )

    def test_bad_comparison_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("X", "LIKE", 1)


class TestEvaluation:
    def test_single_atom_projection(self, db):
        query = ConjunctiveQuery(["X"], [QueryAtom("R", ("X", "Y"))])
        assert sorted(evaluate(db, query)) == [(1,), (2,), (3,), (4,)]

    def test_join(self, db):
        query = ConjunctiveQuery(
            ["X", "C"], [QueryAtom("R", ("X", "Y")), QueryAtom("S", ("Y", "C"))]
        )
        assert sorted(evaluate(db, query)) == [
            (1, 100), (2, 100), (3, 200), (3, 201),
        ]

    def test_distinct_semantics(self, db):
        query = ConjunctiveQuery(
            ["Y"], [QueryAtom("R", ("X", "Y")), QueryAtom("S", ("Y", "C"))]
        )
        assert sorted(evaluate(db, query)) == [(10,), (20,)]
        assert len(evaluate(db, query, use_distinct=False)) == 4

    def test_distinct_keeps_first_seen_order(self):
        db = Database("order")
        db.create_table("T", [("k", "int"), ("v", "int")])
        db.insert("T", [(1, 30), (2, 10), (3, 30), (4, 20), (5, 10)])
        query = ConjunctiveQuery(["V"], [QueryAtom("T", ("K", "V"))])
        assert evaluate(db, query, use_distinct=False) == [(30,), (10,), (30,), (20,), (10,)]
        assert evaluate(db, query) == [(30,), (10,), (20,)]

    def test_constant_selection(self, db):
        query = ConjunctiveQuery(["X"], [QueryAtom("R", ("X", Const(10)))])
        assert sorted(evaluate(db, query)) == [(1,), (2,)]

    def test_anonymous_argument(self, db):
        query = ConjunctiveQuery(["X"], [QueryAtom("R", ("X", None))])
        assert len(evaluate(db, query)) == 4

    def test_comparison_predicate(self, db):
        query = ConjunctiveQuery(
            ["X"], [QueryAtom("R", ("X", "Y"))], [Comparison("Y", ">=", 20)]
        )
        assert sorted(evaluate(db, query)) == [(3,), (4,)]

    def test_repeated_variable_in_atom(self, db):
        db.insert("R", [(7, 7)])
        query = ConjunctiveQuery(["X"], [QueryAtom("R", ("X", "X"))])
        assert evaluate(db, query) == [(7,)]

    def test_self_join(self, db):
        query = ConjunctiveQuery(
            ["X", "Z"], [QueryAtom("R", ("X", "Y")), QueryAtom("R", ("Z", "Y"))]
        )
        result = set(evaluate(db, query))
        assert (1, 2) in result and (2, 1) in result and (1, 1) in result
        assert (1, 3) not in result

    def test_join_on_two_shared_variables(self, db):
        db.create_table("T", [("a", "int"), ("b", "int"), ("tag", "str")])
        db.insert("T", [(1, 10, "hit"), (1, 20, "miss"), (3, 20, "hit")])
        query = ConjunctiveQuery(
            ["X", "G"], [QueryAtom("R", ("X", "Y")), QueryAtom("T", ("X", "Y", "G"))]
        )
        assert sorted(evaluate(db, query)) == [(1, "hit"), (3, "hit")]

    def test_arity_mismatch_raises(self, db):
        query = ConjunctiveQuery(["X"], [QueryAtom("R", ("X", "Y", "Z"))])
        with pytest.raises(QueryError):
            evaluate(db, query)

    def test_cartesian_product_when_disconnected(self, db):
        query = ConjunctiveQuery(
            ["X", "C"], [QueryAtom("R", ("X", None)), QueryAtom("S", (None, "C"))]
        )
        assert len(evaluate(db, query)) == 4 * 4

    def test_matches_bruteforce(self, db):
        query = ConjunctiveQuery(
            ["X", "C"],
            [QueryAtom("R", ("X", "Y")), QueryAtom("S", ("Y", "C"))],
            [Comparison("C", "<", 300)],
        )
        assert set(evaluate(db, query)) == evaluate_bruteforce(db, query)


# --------------------------------------------------------------------------- #
# property-based: the hash-join executor always agrees with brute force
# --------------------------------------------------------------------------- #
@st.composite
def random_database_and_query(draw):
    r_rows = draw(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=25)
    )
    s_rows = draw(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=25)
    )
    db = Database("prop")
    db.create_table("R", [("a", "int"), ("b", "int")])
    db.create_table("S", [("b", "int"), ("c", "int")])
    db.insert("R", r_rows)
    db.insert("S", s_rows)
    head = draw(st.sampled_from([["X"], ["X", "C"], ["C", "X"], ["Y"]]))
    comparisons = []
    if draw(st.booleans()):
        comparisons.append(Comparison("Y", draw(st.sampled_from(["<", ">=", "!="])), draw(st.integers(0, 5))))
    query = ConjunctiveQuery(
        head,
        [QueryAtom("R", ("X", "Y")), QueryAtom("S", ("Y", "C"))],
        comparisons,
    )
    return db, query


@settings(max_examples=60, deadline=None)
@given(random_database_and_query())
def test_property_executor_matches_bruteforce(data):
    db, query = data
    assert set(evaluate(db, query)) == evaluate_bruteforce(db, query)
