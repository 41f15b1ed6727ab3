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
close to the size of the relational input, and BITMAP sits between C-DUP and
EXP in iteration speed.
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
from repro.utils import Timer
from repro.vertexcentric import run_degree, run_pagerank

from benchmarks.conftest import once, record_rows

_ROWS: list[dict[str, object]] = []
_DEDUP_ROWS: list[dict[str, object]] = []

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
    """dataset -> {representation -> graph} plus BITMAP preprocessing time."""
    graphs: dict[str, dict[str, object]] = {}
    dedup_seconds: dict[str, float] = {}
    for name, (db, query) in _build_databases().items():
        gg = GraphGen(db, preprocess=False)
        condensed = gg.extract_with_report(query, representation="cdup").condensed
        timer = Timer().start()
        bitmap = preprocess_bitmap(condensed, algorithm="bitmap2")
        dedup_seconds[name] = timer.stop()
        graphs[name] = {
            "C-DUP": CDupGraph(condensed),
            "BITMAP": bitmap,
            "EXP": expand(condensed),
        }
    return graphs, dedup_seconds


def _record(dataset: str, representation: str, algorithm: str, seconds: float,
            memory_bytes: int) -> None:
    _ROWS.append(
        {
            "dataset": dataset,
            "representation": representation,
            "algorithm": algorithm,
            "seconds": round(seconds, 5),
            "estimated_memory_bytes": memory_bytes,
        }
    )


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_degree(benchmark, table3_graphs, dataset, representation):
    graphs, _ = table3_graphs
    graph = graphs[dataset][representation]
    values, _ = once(benchmark, run_degree, graph)
    _record(dataset, representation, "Degree", benchmark.stats.stats.mean,
            representation_stats(graph).estimated_bytes)
    assert len(values) == graph.num_vertices()


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_pagerank(benchmark, table3_graphs, dataset, representation):
    graphs, _ = table3_graphs
    graph = graphs[dataset][representation]
    values, _ = once(benchmark, run_pagerank, graph, 10)
    _record(dataset, representation, "PageRank", benchmark.stats.stats.mean,
            representation_stats(graph).estimated_bytes)
    assert len(values) == graph.num_vertices()


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_bfs(benchmark, table3_graphs, dataset, representation):
    graphs, _ = table3_graphs
    graph = graphs[dataset][representation]
    source = min(graph.get_vertices(), key=repr)
    distances = once(benchmark, bfs_distances, graph, source)
    _record(dataset, representation, "BFS", benchmark.stats.stats.mean,
            representation_stats(graph).estimated_bytes)
    assert distances[source] == 0


def test_bitmap_dedup_time(benchmark, table3_graphs):
    """The 'Dedup Time' column of Table 3 (BITMAP-2 preprocessing cost)."""
    _, dedup_seconds = table3_graphs

    def collect():
        for name, seconds in dedup_seconds.items():
            _DEDUP_ROWS.append(
                {"dataset": name, "bitmap2_preprocessing_seconds": round(seconds, 4)}
            )
        return len(_DEDUP_ROWS)

    count = once(benchmark, collect)
    assert count == len(DATASET_NAMES)


def test_table3_summary(benchmark, table3_graphs):
    graphs, _ = table3_graphs

    def collect_memory():
        memory: dict[tuple[str, str], int] = {}
        for dataset, reps in graphs.items():
            for representation, graph in reps.items():
                memory[(dataset, representation)] = representation_stats(graph).estimated_bytes
        return memory

    memory = once(benchmark, collect_memory)
    record_rows("table3_large", "Table 3: large datasets (time + memory)", _ROWS)
    record_rows("table3_large", "Table 3: BITMAP deduplication time", _DEDUP_ROWS)

    # the dense datasets explode when expanded: EXP pays a much larger
    # footprint than the condensed representations
    for dense in ("Single_2", "Layered_1", "Layered_2", "TPCH"):
        assert memory[(dense, "EXP")] >= 2 * memory[(dense, "C-DUP")], (
            f"{dense}: EXP expected to pay a much larger memory footprint"
        )
        assert memory[(dense, "BITMAP")] < memory[(dense, "EXP")]

    # all three representations expose the same logical degree distribution
    for dataset, reps in graphs.items():
        reference, _ = run_degree(reps["EXP"])
        for name in ("C-DUP", "BITMAP"):
            values, _ = run_degree(reps[name])
            assert values == reference, f"{dataset}/{name}: degree mismatch vs EXP"
