"""Figure 13 — microbenchmarks of the basic Graph API operations.

For each of the four small datasets and every in-memory representation, run
the three operations the paper's microbenchmarks highlight, each over the same
fixed sample of vertices (the paper uses 3000 repetitions on a fixed random
vertex set; we scale the sample to the dataset):

* ``getNeighbors(v)`` — full iteration over a vertex's logical neighbors;
* ``existsEdge(v, u)`` — logical edge membership checks;
* ``deleteVertex(v)``  — vertex removal (run last: it mutates the graphs).

Shape assertions (counts, not clocks — the timings are ``bench/``'s):

* EXP does the least physical work for ``getNeighbors``: iterating a
  materialised adjacency list reads one entry per neighbour, while every
  condensed representation walks through virtual nodes and reads at least
  as many adjacency entries for the same vertices, on every dataset;
* every sampled vertex is gone after ``deleteVertex``, on every
  representation.
"""

from __future__ import annotations

import pytest

from repro.datasets import SMALL_SPECS, generate_from_spec
from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.dedup.expand import expand
from repro.graph import CDupGraph, CondensedGraph
from repro.graph.condensed_base import CondensedBackedGraph
from repro.graph.dedup2 import Dedup2Graph
from repro.utils.rand import SeededRandom

DATASET_NAMES = ("DBLP", "IMDB", "Synthetic_1", "Synthetic_2")
REPRESENTATIONS = ("EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP")
SAMPLE_SIZE = 300


@pytest.fixture(scope="module")
def micro_graphs(small_condensed_graphs):
    """dataset -> {representation -> graph} shared by all microbenchmarks."""
    datasets = {
        "DBLP": small_condensed_graphs["DBLP"],
        "IMDB": small_condensed_graphs["IMDB"],
        "Synthetic_1": generate_from_spec(SMALL_SPECS["synthetic_1"]),
        "Synthetic_2": generate_from_spec(SMALL_SPECS["synthetic_2"]),
    }
    graphs: dict[str, dict[str, object]] = {}
    for name, condensed in datasets.items():
        graphs[name] = {
            "EXP": expand(condensed),
            "C-DUP": CDupGraph(condensed),
            "DEDUP-1": deduplicate_dedup1(condensed.copy(), algorithm="greedy_virtual_first"),
            "BITMAP": preprocess_bitmap(condensed, algorithm="bitmap2"),
        }
        if condensed.is_symmetric():
            graphs[name]["DEDUP-2"] = deduplicate_dedup2(condensed.copy())
    return graphs


def _sample_vertices(graph, count: int, seed: int = 41) -> list:
    rng = SeededRandom(seed)
    vertices = sorted(graph.get_vertices(), key=repr)
    return rng.sample(vertices, min(count, len(vertices)))


def _elements_touched(graph, sample) -> int:
    """Adjacency entries the sample's ``getNeighbors`` walks read — the
    physical work behind the figure's first panel, as a count.

    A condensed-backed walk reads nothing but ``CondensedGraph.out`` rows
    (the vertex's own, then one per virtual node it descends into), so those
    are counted as they are handed out; DEDUP-2 reads the vertex's virtual
    nodes, their member lists, their adjacent virtual nodes and those
    members; EXP reads one materialised entry per neighbour."""
    if isinstance(graph, CondensedBackedGraph):
        touched = 0
        rows = CondensedGraph.out

        def counted(self, node):
            nonlocal touched
            row = rows(self, node)
            touched += len(row)
            return row

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CondensedGraph, "out", counted)
            for vertex in sample:
                for _ in graph.get_neighbors(vertex):
                    pass
        return touched
    if isinstance(graph, Dedup2Graph):
        touched = 0
        for vertex in sample:
            virtuals = graph.virtuals_of(vertex)
            touched += len(virtuals)
            for virtual in virtuals:
                adjacent = graph.virtual_neighbors(virtual)
                touched += len(graph.members(virtual)) + len(adjacent)
                touched += sum(len(graph.members(other)) for other in adjacent)
        return touched
    return sum(1 for vertex in sample for _ in graph.get_neighbors(vertex))


@pytest.fixture(scope="module")
def neighbor_walks(micro_graphs):
    """(dataset, representation) -> adjacency entries the sample's
    ``getNeighbors`` walk reads, counted on the graphs as built."""
    return {
        (dataset, representation): _elements_touched(
            graph, _sample_vertices(graph, SAMPLE_SIZE)
        )
        for dataset, graphs in micro_graphs.items()
        for representation, graph in graphs.items()
    }


# --------------------------------------------------------------------------- #
# getNeighbors
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_get_neighbors(micro_graphs, neighbor_walks, dataset, representation):
    graph = micro_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    sample = _sample_vertices(graph, SAMPLE_SIZE)
    total = sum(1 for vertex in sample for _ in graph.get_neighbors(vertex))
    elements = neighbor_walks[(dataset, representation)]
    assert elements >= total >= 0  # every neighbour yielded was read somewhere


# --------------------------------------------------------------------------- #
# existsEdge
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_exists_edge(micro_graphs, dataset, representation):
    graph = micro_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    sample = _sample_vertices(graph, SAMPLE_SIZE)
    rng = SeededRandom(59)
    pairs = [(rng.choice(sample), rng.choice(sample)) for _ in range(SAMPLE_SIZE)]
    hits = sum(1 for u, v in pairs if graph.exists_edge(u, v))
    assert 0 <= hits <= len(pairs)


# --------------------------------------------------------------------------- #
# deleteVertex (mutating; intentionally last)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_delete_vertex(micro_graphs, neighbor_walks, dataset, representation):
    # ``neighbor_walks`` is requested so the walks are counted before any
    # vertex goes, whichever tests are selected
    graph = micro_graphs[dataset].get(representation)
    if graph is None:
        pytest.skip(f"{representation} not available for {dataset}")
    victims = _sample_vertices(graph, 50, seed=73)

    removed = 0
    for vertex in victims:
        if graph.has_vertex(vertex):
            graph.delete_vertex(vertex)
            removed += 1
    assert removed > 0
    for vertex in victims:
        assert not graph.has_vertex(vertex)


# --------------------------------------------------------------------------- #
# summary
# --------------------------------------------------------------------------- #
def test_figure13_summary(neighbor_walks):
    # EXP touches the fewest adjacency entries per neighbour list on every
    # dataset: a condensed walk reads the same neighbours through virtual nodes
    assert len(neighbor_walks) > len(DATASET_NAMES), "the getNeighbors walks did not run"
    for (dataset, representation), elements in neighbor_walks.items():
        assert elements >= neighbor_walks[(dataset, "EXP")] > 0, (
            f"{dataset}/{representation}: neighbour iteration touched {elements} "
            f"adjacency entries, fewer than EXP's {neighbor_walks[(dataset, 'EXP')]}"
        )
