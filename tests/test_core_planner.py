"""Tests for the extraction planner (large-output join detection, segments)."""

import pytest

from repro.core.planner import Planner
from repro.datasets import generate_dblp
from repro.dsl.parser import parse
from repro.relational.database import Database


@pytest.fixture
def dense_dblp() -> Database:
    """A DBLP-shaped database whose co-author join is clearly large-output."""
    db = Database("dense")
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("AuthorPub", [("aid", "int"), ("pid", "int")])
    db.insert("Author", [(a, f"a{a}") for a in range(60)])
    rows = []
    for pid in range(12):
        for aid in range(pid, pid + 25):  # 25 authors per paper
            rows.append((aid % 60, pid))
    db.insert("AuthorPub", sorted(set(rows)))
    return db


@pytest.fixture
def tpch_like() -> Database:
    db = Database("tpch_like")
    db.create_table("Customer", [("custkey", "int"), ("name", "str")], primary_key="custkey")
    db.create_table("Orders", [("orderkey", "int"), ("custkey", "int")], primary_key="orderkey")
    db.create_table("LineItem", [("orderkey", "int"), ("partkey", "int")])
    db.insert("Customer", [(c, f"c{c}") for c in range(30)])
    orders, items = [], []
    order = 0
    for customer in range(30):
        for _ in range(3):
            orders.append((order, customer))
            for part in range(order % 4, order % 4 + 3):
                items.append((order, part % 6))
            order += 1
    db.insert("Orders", orders)
    db.insert("LineItem", sorted(set(items)))
    return db


COAUTHOR = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
"""

COPURCHASE = """
Nodes(ID, Name) :- Customer(ID, Name).
Edges(ID1, ID2) :- Orders(OK1, ID1), LineItem(OK1, PK), Orders(OK2, ID2), LineItem(OK2, PK).
"""


class TestNodePlans:
    def test_node_plan_properties(self, dense_dblp):
        plan = Planner(dense_dblp).plan(parse(COAUTHOR))
        node_plan = plan.node_plans[0]
        assert node_plan.id_variable == "ID"
        assert node_plan.property_variables == ["Name"]
        assert node_plan.query.head_vars == ["ID", "Name"]


class TestJoinClassification:
    def test_coauthor_join_is_large_output(self, dense_dblp):
        plan = Planner(dense_dblp).plan(parse(COAUTHOR))
        edge_plan = plan.edge_plans[0]
        assert edge_plan.condensed
        assert len(edge_plan.decisions) == 1
        assert edge_plan.decisions[0].is_large_output
        assert edge_plan.virtual_attributes == ["PubID"]
        assert len(edge_plan.segments) == 2
        assert plan.case == 1

    def test_exact_estimator(self, dense_dblp):
        plan = Planner(dense_dblp).plan(parse(COAUTHOR))
        decision = plan.edge_plans[0].decisions[0]
        table = dense_dblp.table("AuthorPub")
        true_size = sum(
            len(rows) ** 2 for rows in table.index_on("pid").values()
        )
        assert decision.estimated_output == true_size
        assert decision.threshold == 2 * (decision.left_rows + decision.right_rows)

    def test_tpch_chain_marks_only_middle_join(self, tpch_like):
        plan = Planner(tpch_like).plan(parse(COPURCHASE))
        edge_plan = plan.edge_plans[0]
        large_flags = [d.is_large_output for d in edge_plan.decisions]
        # key-FK joins on orderkey are small, the partkey self-join explodes
        assert large_flags == [False, True, False]
        assert edge_plan.virtual_attributes == ["PK"]
        assert len(edge_plan.segments) == 2
        assert edge_plan.segments[0].starts_at_source
        assert edge_plan.segments[1].ends_at_target

    def test_dblp_at_four_authors_per_paper_condenses_on_every_seed(self):
        """Four authors per paper sits on the uniform estimate's threshold
        (``|AuthorPub| / papers = 4``), where the seed alone used to decide;
        the exact size ``Σ n_p²`` also counts the spread of authors per
        paper and is above it on every seed."""
        cut = [
            Planner(generate_dblp(mean_authors_per_pub=4.0, seed=seed))
            .plan(parse(COAUTHOR))
            .edge_plans[0]
            .virtual_attributes
            for seed in range(10)
        ]
        assert cut == [["PubID"]] * 10

    def test_segment_boundary_variables(self, tpch_like):
        plan = Planner(tpch_like).plan(parse(COPURCHASE))
        first, second = plan.edge_plans[0].segments
        assert first.query.head_vars == ["ID1", "PK"]
        assert second.query.head_vars == ["PK", "ID2"]


class TestCase2Fallback:
    def test_cyclic_rule_gets_full_query(self, dense_dblp):
        query = """
        Nodes(ID, Name) :- Author(ID, Name).
        Edges(ID1, ID2) :- AuthorPub(ID1, A), AuthorPub(A, B), AuthorPub(B, ID1), AuthorPub(ID1, ID2).
        """
        plan = Planner(dense_dblp).plan(parse(query))
        assert plan.case == 2
        assert not plan.edge_plans[0].condensed
        assert plan.edge_plans[0].full_query is not None


class TestPlanOutput:
    def test_describe_mentions_large_output(self, dense_dblp):
        plan = Planner(dense_dblp).plan(parse(COAUTHOR))
        text = plan.describe()
        assert "LARGE-OUTPUT" in text
        assert "segment" in text
        # the exact size, not an estimate: 12 papers x 25 authors each
        assert "AuthorPub(pid) x AuthorPub(pid) = 7500 rows [LARGE-OUTPUT]" in text

    def test_sql_statements(self, dense_dblp):
        plan = Planner(dense_dblp).plan(parse(COAUTHOR))
        statements = plan.sql(dense_dblp)
        assert len(statements) == 3  # 1 nodes + 2 segments
        assert all(statement.startswith("SELECT DISTINCT") for statement in statements)

    def test_num_virtual_layers(self, dense_dblp, tpch_like):
        assert Planner(dense_dblp).plan(parse(COAUTHOR)).num_virtual_layers() == 1
        plan = Planner(tpch_like).plan(parse(COPURCHASE))
        assert plan.num_virtual_layers() == 1
