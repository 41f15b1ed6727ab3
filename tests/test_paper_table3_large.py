"""Table 3 — large datasets: C-DUP vs BITMAP vs EXP.

The paper's Table 3 runs Degree, PageRank and BFS on five datasets that are
too large/dense for the DEDUP-1 / DEDUP-2 algorithms to be practical
(Layered_1, Layered_2, Single_1, Single_2 and the TPC-H co-purchase graph),
comparing only the three representations that remain feasible at that scale:
C-DUP (free to build), BITMAP (BITMAP-2 preprocessing) and EXP (full
expansion).  It reports per-algorithm running time, memory consumption and
the BITMAP deduplication time.

The datasets here are scaled-down versions generated with the same join
selectivities (Appendix C.2); the shape that must hold is that EXP pays a
much larger memory footprint on the dense datasets while C-DUP/BITMAP stay
close to the size of the relational input, and that all three expose the
same logical graph.  Running times are ``bench/``'s.
"""

from __future__ import annotations

import pytest

from repro.algorithms import bfs_distances
from repro.core import GraphGen
from repro.datasets import (
    COPURCHASE_QUERY,
    LAYERED_QUERY,
    LAYERED_SPECS,
    SINGLE_QUERY,
    SINGLE_SPECS,
    generate_layered,
    generate_single,
    generate_tpch,
)
from repro.dedup import preprocess_bitmap
from repro.dedup.expand import expand
from repro.graph import CDupGraph, representation_stats
from repro.vertexcentric import run_degree, run_pagerank

pytestmark = pytest.mark.slow

DATASET_NAMES = ("Layered_1", "Layered_2", "Single_1", "Single_2", "TPCH")
REPRESENTATIONS = ("C-DUP", "BITMAP", "EXP")


def _build_databases():
    return {
        "Layered_1": (generate_layered(LAYERED_SPECS["layered_1"]), LAYERED_QUERY),
        "Layered_2": (generate_layered(LAYERED_SPECS["layered_2"]), LAYERED_QUERY),
        "Single_1": (generate_single(SINGLE_SPECS["single_1"]), SINGLE_QUERY),
        "Single_2": (generate_single(SINGLE_SPECS["single_2"]), SINGLE_QUERY),
        "TPCH": (
            generate_tpch(
                num_customers=400, num_parts=60, orders_per_customer=3.0,
                lineitems_per_order=4.0, part_skew=1.0, seed=5,
            ),
            COPURCHASE_QUERY,
        ),
    }


@pytest.fixture(scope="module")
def table3_graphs():
    """dataset -> {representation -> graph}."""
    graphs: dict[str, dict[str, object]] = {}
    for name, (db, query) in _build_databases().items():
        gg = GraphGen(db, preprocess=False)
        condensed = gg.extract_with_report(query, representation="cdup").condensed
        graphs[name] = {
            "C-DUP": CDupGraph(condensed),
            "BITMAP": preprocess_bitmap(condensed, algorithm="bitmap2"),
            "EXP": expand(condensed),
        }
    return graphs


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_degree(table3_graphs, dataset, representation):
    graph = table3_graphs[dataset][representation]
    values, _ = run_degree(graph)
    assert len(values) == graph.num_vertices()


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_pagerank(table3_graphs, dataset, representation):
    graph = table3_graphs[dataset][representation]
    values, _ = run_pagerank(graph, 10)
    assert len(values) == graph.num_vertices()


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_bfs(table3_graphs, dataset, representation):
    graph = table3_graphs[dataset][representation]
    source = min(graph.get_vertices(), key=repr)
    distances = bfs_distances(graph, source)
    assert distances[source] == 0


def test_bitmap_dedup_time(table3_graphs):
    """The 'Dedup Time' column of Table 3: BITMAP-2 preprocessing ran on
    every dataset and kept its vertices (its cost is ``bench/``'s
    ``dedup.bitmap_s``)."""
    assert set(table3_graphs) == set(DATASET_NAMES)
    for dataset, reps in table3_graphs.items():
        assert reps["BITMAP"].num_vertices() == reps["EXP"].num_vertices(), dataset


def test_table3_summary(table3_graphs):
    memory = {
        (dataset, representation): representation_stats(graph).estimated_bytes
        for dataset, reps in table3_graphs.items()
        for representation, graph in reps.items()
    }

    # the dense datasets explode when expanded: EXP pays a much larger
    # footprint than the condensed representations
    for dense in ("Single_2", "Layered_1", "Layered_2", "TPCH"):
        assert memory[(dense, "EXP")] >= 2 * memory[(dense, "C-DUP")], (
            f"{dense}: EXP expected to pay a much larger memory footprint"
        )
        assert memory[(dense, "BITMAP")] < memory[(dense, "EXP")]

    # all three representations expose the same logical degree distribution
    for dataset, reps in table3_graphs.items():
        reference, _ = run_degree(reps["EXP"])
        for name in ("C-DUP", "BITMAP"):
            values, _ = run_degree(reps[name])
            assert values == reference, f"{dataset}/{name}: degree mismatch vs EXP"
