"""Tables 4 and 5 — the (simulated) Apache Giraph port, as deterministic pins.

Table 4 of the paper runs Degree, Connected Components and PageRank on three
representations (EXP, DEDUP-1, BITMAP) ported to Apache Giraph, over the
synthetic datasets S1/S2 (growing virtual-node size), N1/N2 (growing node
counts) and the IMDB co-actor graph; Table 5 lists the per-representation
dataset sizes (nodes, virtual nodes, edges).

Every (dataset, representation, algorithm) cell of the simulated BSP engine
(:mod:`repro.giraph`) is pinned to its literal superstep count, message
volume and analytic memory estimate — all three are functions of the seeded
datasets alone — at ``parallelism`` 1 and 2, whose values and metrics must
also be equal.  Nothing here reads a clock: the running-time column is
``giraph.pagerank_s`` / ``giraph.pagerank_p2_s`` of ``bench/``.

Shape assertions:

* all representations compute identical results per algorithm;
* on the dense synthetic datasets the BITMAP representation stores far fewer
  physical edges than EXP (Table 5) and therefore pays less memory;
* virtual-node message aggregation keeps BITMAP's PageRank message volume at
  most ~2x the number of condensed edges per superstep, which on dense
  datasets is far below EXP's one-message-per-expanded-edge volume.
"""

from __future__ import annotations

import pytest

from repro.core import GraphGen
from repro.dedup import deduplicate_dedup1, preprocess_bitmap
from repro.dedup.expand import expand
from repro.datasets import generate_giraph_dataset
from repro.giraph import run_giraph
from repro.graph import representation_stats

DATASET_NAMES = ("S1", "S2", "N1", "N2", "IMDB")
REPRESENTATIONS = ("EXP", "DEDUP-1", "BITMAP")
ALGORITHMS = ("degree", "connected_components", "pagerank")

#: (dataset, representation, algorithm) ->
#: (supersteps, total_messages, estimated_memory_bytes), 10 PageRank iterations
EXPECTED_CELLS = {
    ("S1", "EXP", "degree"): (1, 0, 259720),
    ("S1", "EXP", "connected_components"): (4, 65645, 885280),
    ("S1", "EXP", "pagerank"): (11, 260650, 885280),
    ("S1", "DEDUP-1", "degree"): (3, 932, 127496),
    ("S1", "DEDUP-1", "connected_components"): (5, 21376, 303080),
    ("S1", "DEDUP-1", "pagerank"): (21, 80750, 303080),
    ("S1", "BITMAP", "degree"): (3, 932, 70352),
    ("S1", "BITMAP", "connected_components"): (6, 1972, 70352),
    ("S1", "BITMAP", "pagerank"): (21, 9320, 70352),
    ("S2", "EXP", "degree"): (1, 0, 1390632),
    ("S2", "EXP", "connected_components"): (4, 418590, 5408928),
    ("S2", "EXP", "pagerank"): (11, 1674290, 5408928),
    ("S2", "DEDUP-1", "degree"): (3, 3166, 520488),
    ("S2", "DEDUP-1", "connected_components"): (5, 143730, 1763016),
    ("S2", "DEDUP-1", "pagerank"): (21, 538480, 1763016),
    ("S2", "BITMAP", "degree"): (3, 3166, 115032),
    ("S2", "BITMAP", "connected_components"): (6, 6724, 115032),
    ("S2", "BITMAP", "pagerank"): (21, 31660, 115032),
    ("N1", "EXP", "degree"): (1, 0, 783496),
    ("N1", "EXP", "connected_components"): (4, 247445, 2903584),
    ("N1", "EXP", "pagerank"): (11, 883370, 2903584),
    ("N1", "DEDUP-1", "degree"): (3, 4909, 590408),
    ("N1", "DEDUP-1", "connected_components"): (5, 161387, 1864712),
    ("N1", "DEDUP-1", "pagerank"): (21, 562870, 1864712),
    ("N1", "BITMAP", "degree"): (3, 4956, 179760),
    ("N1", "BITMAP", "connected_components"): (6, 11755, 179760),
    ("N1", "BITMAP", "pagerank"): (21, 49560, 179760),
    ("N2", "EXP", "degree"): (1, 0, 1334936),
    ("N2", "EXP", "connected_components"): (4, 416345, 4955744),
    ("N2", "EXP", "pagerank"): (11, 1508670, 4955744),
    ("N2", "DEDUP-1", "degree"): (3, 8019, 1013120),
    ("N2", "DEDUP-1", "connected_components"): (5, 271493, 3232328),
    ("N2", "DEDUP-1", "pagerank"): (21, 977320, 3232328),
    ("N2", "BITMAP", "degree"): (3, 8072, 295840),
    ("N2", "BITMAP", "connected_components"): (6, 18957, 295840),
    ("N2", "BITMAP", "pagerank"): (21, 80720, 295840),
    ("IMDB", "EXP", "degree"): (1, 0, 94640),
    ("IMDB", "EXP", "connected_components"): (5, 23919, 301760),
    ("IMDB", "EXP", "pagerank"): (11, 86300, 301760),
    ("IMDB", "DEDUP-1", "degree"): (3, 1349, 82632),
    ("IMDB", "DEDUP-1", "connected_components"): (7, 15600, 167472),
    ("IMDB", "DEDUP-1", "pagerank"): (21, 45640, 167472),
    ("IMDB", "BITMAP", "degree"): (3, 1390, 57240),
    ("IMDB", "BITMAP", "connected_components"): (8, 3419, 57240),
    ("IMDB", "BITMAP", "pagerank"): (21, 13900, 57240),
}


@pytest.fixture(scope="module")
def giraph_graphs(small_datasets):
    """dataset -> {representation -> graph} for the Table 4/5 datasets."""
    condensed_by_name = {
        name: generate_giraph_dataset(name) for name in ("S1", "S2", "N1", "N2")
    }
    # extracted here, not taken from the session-wide condensed graphs: other
    # modules preprocess those in place, and the pins below are literal
    imdb_db, coactor_query = small_datasets["IMDB"]
    extractor = GraphGen(imdb_db, preprocess=False)
    condensed_by_name["IMDB"] = extractor.extract_with_report(
        coactor_query, representation="cdup"
    ).condensed
    graphs: dict[str, dict[str, object]] = {}
    for name, condensed in condensed_by_name.items():
        graphs[name] = {
            "EXP": expand(condensed),
            "DEDUP-1": deduplicate_dedup1(condensed.copy(), algorithm="greedy_virtual_first"),
            "BITMAP": preprocess_bitmap(condensed, algorithm="bitmap2"),
        }
    return graphs


@pytest.fixture(scope="module")
def giraph_run(giraph_graphs):
    """``run(dataset, representation, algorithm, parallelism=1)``, each cell
    computed once per module."""
    results: dict[tuple, object] = {}

    def run(dataset, representation, algorithm, parallelism=1):
        key = (dataset, representation, algorithm, parallelism)
        if key not in results:
            graph = giraph_graphs[dataset][representation]
            results[key] = run_giraph(graph, algorithm, 10, parallelism=parallelism)
        return results[key]

    return run


@pytest.mark.parametrize("dataset", DATASET_NAMES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_giraph_cell(giraph_graphs, giraph_run, dataset, representation, algorithm):
    serial = giraph_run(dataset, representation, algorithm)
    assert len(serial.values) == giraph_graphs[dataset][representation].num_vertices()
    assert (
        serial.metrics.supersteps,
        serial.metrics.total_messages,
        serial.estimated_memory_bytes,
    ) == EXPECTED_CELLS[(dataset, representation, algorithm)]
    parallel = giraph_run(dataset, representation, algorithm, parallelism=2)
    assert parallel.values == serial.values
    assert parallel.metrics == serial.metrics


def test_table5_sizes(giraph_graphs):
    """Table 5: on the dense synthetic datasets BITMAP keeps far fewer
    physical edges than EXP (that is the whole point of the representation)."""
    edges = {
        (dataset, representation): representation_stats(graph).edges
        for dataset, reps in giraph_graphs.items()
        for representation, graph in reps.items()
    }
    assert len(edges) == len(DATASET_NAMES) * len(REPRESENTATIONS)
    for dataset in ("S1", "S2", "N1", "N2"):
        assert edges[(dataset, "BITMAP")] * 2 < edges[(dataset, "EXP")], (
            f"{dataset}: BITMAP should store far fewer edges"
        )


def test_table4_summary(giraph_run):
    # message-volume shape: BITMAP (virtual-node aggregation) sends fewer
    # PageRank messages than EXP on the dense datasets
    for dataset in ("S2", "N2"):
        exp_messages = giraph_run(dataset, "EXP", "pagerank").metrics.total_messages
        bmp_messages = giraph_run(dataset, "BITMAP", "pagerank").metrics.total_messages
        assert bmp_messages < exp_messages, (
            f"{dataset}: BITMAP PageRank should send fewer messages than EXP"
        )

    # correctness: every representation must agree on every algorithm
    for dataset in DATASET_NAMES:
        for algorithm in ALGORITHMS:
            reference = giraph_run(dataset, "EXP", algorithm).values
            for representation in ("DEDUP-1", "BITMAP"):
                values = giraph_run(dataset, representation, algorithm).values
                if algorithm == "pagerank":
                    assert set(values) == set(reference)
                    for vertex, score in values.items():
                        assert abs(score - reference[vertex]) < 1e-6, (
                            f"{dataset}/{representation}: PageRank mismatch at {vertex!r}"
                        )
                else:
                    assert values == reference, (
                        f"{dataset}/{representation}: {algorithm} mismatch vs EXP"
                    )
