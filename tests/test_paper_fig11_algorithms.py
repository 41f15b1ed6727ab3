"""Figure 11 — graph-algorithm performance on each representation.

Runs Degree (vertex-centric), BFS (50 fixed random sources, Graph API) and
PageRank (vertex-centric, 10 iterations) on every in-memory representation of
the DBLP and Synthetic_1 datasets.  The representations must all return
identical results; how fast each one is, is ``bench/``'s to measure.
"""

from __future__ import annotations

import pytest

from repro.algorithms import bfs_distances
from repro.datasets import SMALL_SPECS, generate_from_spec
from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.dedup.expand import expand
from repro.graph import CDupGraph
from repro.utils.rand import SeededRandom
from repro.vertexcentric import run_degree, run_pagerank

REPRESENTATIONS = ("EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP")
DATASETS = ("DBLP", "Synthetic_1")


@pytest.fixture(scope="module")
def algorithm_graphs(small_condensed_graphs):
    """dataset -> {representation -> graph} for the Figure 11 datasets."""
    datasets = {
        "DBLP": small_condensed_graphs["DBLP"],
        "Synthetic_1": generate_from_spec(SMALL_SPECS["synthetic_1"]),
    }
    graphs: dict[str, dict[str, object]] = {}
    for name, condensed in datasets.items():
        graphs[name] = {
            "EXP": expand(condensed),
            "C-DUP": CDupGraph(condensed),
            "DEDUP-1": deduplicate_dedup1(condensed, algorithm="greedy_virtual_first"),
            "BITMAP": preprocess_bitmap(condensed, algorithm="bitmap2"),
        }
        if condensed.is_symmetric():
            graphs[name]["DEDUP-2"] = deduplicate_dedup2(condensed)
    return graphs


def _sources(graph, count: int = 50) -> list:
    rng = SeededRandom(99)
    vertices = sorted(graph.get_vertices(), key=repr)
    return rng.sample(vertices, min(count, len(vertices)))


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_degree(algorithm_graphs, dataset, representation):
    graph = algorithm_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    values, _ = run_degree(graph)
    assert sum(values.values()) > 0


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_bfs(algorithm_graphs, dataset, representation):
    graph = algorithm_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    sources = _sources(graph)

    reached = sum(len(bfs_distances(graph, source)) for source in sources)
    assert reached >= len(sources)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_pagerank(algorithm_graphs, dataset, representation):
    graph = algorithm_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    values, _ = run_pagerank(graph, 10)
    assert abs(sum(values.values())) > 0


def test_figure11_summary(algorithm_graphs):
    """Degrees must agree across representations."""
    for dataset, graphs in algorithm_graphs.items():
        reference, _ = run_degree(graphs["EXP"])
        for name, graph in graphs.items():
            if name in ("EXP", "DEDUP-2"):
                continue
            values, _ = run_degree(graph)
            assert values == reference, f"{dataset}/{name}: degree mismatch vs EXP"
