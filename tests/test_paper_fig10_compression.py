"""Figure 10 + Table 2 — compression performance of the representations.

For DBLP, IMDB and the two synthetic condensed datasets, build every
in-memory representation (C-DUP, DEDUP-1, DEDUP-2, BITMAP-1, BITMAP-2, EXP)
plus the VMiner baseline, and count the edges the figure plots.

Shape assertions:

* EXP stores the most edges on the dense datasets (IMDB, Synthetic_2);
* the condensed representations never store more edges than EXP on those;
* VMiner (which must first expand the graph) does not beat the condensed
  representation GraphGen gets for free.
"""

from __future__ import annotations

import functools

import pytest

from repro.compression import compress as vminer_compress
from repro.datasets import SMALL_SPECS, generate_from_spec
from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.dedup.expand import expand
from repro.graph import CDupGraph, representation_stats

DATASET_NAMES = ("DBLP", "IMDB", "Synthetic_1", "Synthetic_2")

#: representation -> builder from a condensed graph
BUILDERS = {
    "C-DUP": CDupGraph,
    "EXP": expand,
    "DEDUP-1": lambda condensed: deduplicate_dedup1(
        condensed, algorithm="greedy_virtual_first", ordering="random"
    ),
    "DEDUP-2": deduplicate_dedup2,
    "BITMAP1": lambda condensed: preprocess_bitmap(condensed, algorithm="bitmap1"),
    "BITMAP2": lambda condensed: preprocess_bitmap(condensed, algorithm="bitmap2"),
}


@pytest.fixture(scope="module")
def figure10_datasets(small_condensed_graphs):
    """name -> condensed graph for the four Figure 10 datasets."""
    return {
        "DBLP": small_condensed_graphs["DBLP"],
        "IMDB": small_condensed_graphs["IMDB"],
        "Synthetic_1": generate_from_spec(SMALL_SPECS["synthetic_1"]),
        "Synthetic_2": generate_from_spec(SMALL_SPECS["synthetic_2"]),
    }


@pytest.fixture(scope="module")
def stored_edges(figure10_datasets):
    """``stored_edges(dataset, representation)``: the edges the figure plots,
    each representation built once per module."""

    @functools.cache
    def count(dataset: str, representation: str) -> int:
        condensed = figure10_datasets[dataset]
        if representation == "VMiner":
            return vminer_compress(expand(condensed), passes=4).output_edges
        return representation_stats(BUILDERS[representation](condensed)).edges

    return count


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_cdup(stored_edges, dataset):
    assert stored_edges(dataset, "C-DUP") > 0


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_exp(stored_edges, dataset):
    assert stored_edges(dataset, "EXP") > 0


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_dedup1(stored_edges, dataset):
    assert stored_edges(dataset, "DEDUP-1") > 0


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_dedup2(figure10_datasets, stored_edges, dataset):
    if not figure10_datasets[dataset].is_symmetric():
        pytest.skip("DEDUP-2 requires a symmetric condensed graph")
    assert stored_edges(dataset, "DEDUP-2") > 0


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("algorithm", ("bitmap1", "bitmap2"))
def test_bitmap(stored_edges, dataset, algorithm):
    assert stored_edges(dataset, algorithm.upper()) > 0


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_vminer(stored_edges, dataset):
    assert stored_edges(dataset, "VMiner") > 0


def test_figure10_summary(stored_edges):
    for dataset in ("IMDB", "Synthetic_2"):
        exp_edges = stored_edges(dataset, "EXP")
        assert stored_edges(dataset, "C-DUP") < exp_edges
        assert stored_edges(dataset, "BITMAP1") < exp_edges
        assert stored_edges(dataset, "BITMAP2") <= stored_edges(dataset, "BITMAP1")
        # VMiner works from the expanded graph and should not beat the native
        # condensed representation on these clique-rich datasets
        assert stored_edges(dataset, "VMiner") >= stored_edges(dataset, "C-DUP")
