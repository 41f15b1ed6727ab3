"""Figure 12 — deduplication / preprocessing algorithm performance.

Part (a) compares the running time of every preprocessing and deduplication
algorithm (BITMAP-1, BITMAP-2, the four DEDUP-1 algorithms and the DEDUP-2
greedy algorithm) on the four small datasets, using the RAND vertex ordering.
Part (b) re-runs a representative DEDUP-1 algorithm under the different
processing orders (random / degree descending / degree ascending) and checks
that the ordering only causes small variations, as the paper observes.

Shape assertions:

* BITMAP-1 is the fastest preprocessing algorithm on every dataset;
* every algorithm produces a representation that is logically equivalent to
  the input condensed graph (correctness is asserted, not just speed);
* the node ordering changes the resulting DEDUP-1 size by less than 25%.
"""

from __future__ import annotations

import pytest

from repro.datasets import SMALL_SPECS, generate_from_spec
from repro.dedup import (
    BITMAP_ALGORITHMS,
    DEDUP1_ALGORITHMS,
    deduplicate_dedup1,
    deduplicate_dedup2,
    preprocess_bitmap,
)
from repro.graph import CDupGraph, logically_equivalent

from benchmarks.conftest import once, record_rows

_TIME_ROWS: list[dict[str, object]] = []
_ORDER_ROWS: list[dict[str, object]] = []

DATASET_NAMES = ("DBLP", "IMDB", "Synthetic_1", "Synthetic_2")
ORDERINGS = ("random", "degree_desc", "degree_asc")


@pytest.fixture(scope="module")
def fig12_datasets(small_condensed_graphs):
    """name -> condensed graph for the Figure 12 datasets."""
    return {
        "DBLP": small_condensed_graphs["DBLP"],
        "IMDB": small_condensed_graphs["IMDB"],
        "Synthetic_1": generate_from_spec(SMALL_SPECS["synthetic_1"]),
        "Synthetic_2": generate_from_spec(SMALL_SPECS["synthetic_2"]),
    }


def _record_time(dataset: str, algorithm: str, seconds: float, edges: int) -> None:
    _TIME_ROWS.append(
        {
            "dataset": dataset,
            "algorithm": algorithm,
            "seconds": round(seconds, 5),
            "result_edges": edges,
        }
    )


# --------------------------------------------------------------------------- #
# Figure 12a: algorithm running times (RAND ordering)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("algorithm", sorted(BITMAP_ALGORITHMS))
def test_bitmap_preprocessing_time(benchmark, fig12_datasets, dataset, algorithm):
    condensed = fig12_datasets[dataset]
    graph = once(benchmark, preprocess_bitmap, condensed, algorithm=algorithm)
    _record_time(dataset, algorithm.upper(), benchmark.stats.stats.mean,
                 graph.condensed_edge_count())
    assert logically_equivalent(graph, CDupGraph(condensed))


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("algorithm", sorted(DEDUP1_ALGORITHMS))
def test_dedup1_time(benchmark, fig12_datasets, dataset, algorithm):
    condensed = fig12_datasets[dataset]
    graph = once(
        benchmark, deduplicate_dedup1, condensed.copy(),
        algorithm=algorithm, ordering="random", seed=7,
    )
    _record_time(dataset, f"DEDUP1/{algorithm}", benchmark.stats.stats.mean,
                 graph.condensed_edge_count())
    assert logically_equivalent(graph, CDupGraph(condensed))


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_dedup2_time(benchmark, fig12_datasets, dataset):
    condensed = fig12_datasets[dataset]
    if not condensed.is_symmetric():
        pytest.skip("DEDUP-2 requires a symmetric condensed graph")
    graph = once(benchmark, deduplicate_dedup2, condensed.copy())
    _record_time(dataset, "DEDUP2/greedy", benchmark.stats.stats.mean,
                 graph.num_structure_edges())
    # DEDUP-2 cannot represent self-loops (see repro.graph.dedup2), and the
    # extracted co-occurrence graphs contain one per participating entity
    assert logically_equivalent(graph, CDupGraph(condensed), ignore_self_loops=True)
    assert graph.is_duplicate_free()


# --------------------------------------------------------------------------- #
# Figure 12b: effect of the node processing order
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", ("DBLP", "Synthetic_1"))
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_ordering_variation(benchmark, fig12_datasets, dataset, ordering):
    condensed = fig12_datasets[dataset]
    graph = once(
        benchmark, deduplicate_dedup1, condensed.copy(),
        algorithm="greedy_virtual_first", ordering=ordering, seed=7,
    )
    _ORDER_ROWS.append(
        {
            "dataset": dataset,
            "ordering": ordering,
            "seconds": round(benchmark.stats.stats.mean, 5),
            "result_edges": graph.condensed_edge_count(),
        }
    )
    assert logically_equivalent(graph, CDupGraph(condensed))


# --------------------------------------------------------------------------- #
# summary / shape checks
# --------------------------------------------------------------------------- #
def test_figure12_summary(benchmark):
    once(benchmark, lambda: len(_TIME_ROWS))
    record_rows("fig12_dedup", "Figure 12a: deduplication algorithm time", _TIME_ROWS)
    record_rows("fig12_dedup", "Figure 12b: effect of node ordering", _ORDER_ROWS)

    # "BITMAP-1 is the cheapest preprocessing algorithm" (Figure 12a) is a
    # wall-clock observation: it is recorded in the table above and measured
    # by bench/, never asserted here (tier-1 must not decide on timings).

    # node ordering causes only small variations in the output size (12b)
    sizes: dict[str, list[int]] = {}
    for row in _ORDER_ROWS:
        sizes.setdefault(str(row["dataset"]), []).append(int(row["result_edges"]))
    for dataset, edge_counts in sizes.items():
        assert max(edge_counts) <= 1.25 * min(edge_counts), (
            f"{dataset}: ordering changed the DEDUP-1 size by more than 25%"
        )
