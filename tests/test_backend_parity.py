"""Backend-parity suite: every algorithm x both kernel backends.

The contract (see ``repro.graph.backend``): the ``python`` backend is the
bit-exact reference; the ``numpy`` backend must return **exactly equal**
results for integer/discrete kernels and match within ``1e-9`` L-infinity
for float kernels — on every representation, including a snapshot loaded
zero-copy from an mmap'd file.  Neighborhood similarity is not a backend
kernel, so its answers are compared with ``==``.

Backend selection is exercised through the real dispatch point (the
``REPRO_KERNEL_BACKEND`` environment variable read by
:func:`repro.graph.backend.get_backend`), not by calling backend objects
directly, so these tests also pin the selection order.
"""

import random

import pytest

from repro import algorithms as algo
from repro.algorithms.similarity import SCORE_NAMES
from repro.exceptions import UsageError
from repro.graph import CSRGraph, ExpandedGraph
from repro.graph.backend import (
    BACKEND_ENV_VAR,
    get_backend,
    numpy_available,
    set_default_backend,
)

from tests.conftest import build_parity_family

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)

FLOAT_TOLERANCE = 1e-9


# --------------------------------------------------------------------------- #
# graphs under test
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def families():
    """(kind, representation) -> graph; all five representations covered."""
    graphs = {}
    for kind, include_dedup2 in (("symmetric", True), ("directed", False)):
        family = build_parity_family(
            kind, seed=31, num_real=40, num_virtual=14, max_size=7,
            include_dedup2=include_dedup2,
        )
        for name, graph in family.items():
            graphs[(kind, name)] = graph
    return graphs


@pytest.fixture(scope="module")
def mmap_graph(families, tmp_path_factory):
    """A graph whose snapshot is a zero-copy view over an mmap'd file."""
    source = families[("symmetric", "EXP")]
    path = tmp_path_factory.mktemp("backend_parity") / "snapshot.csr"
    source.snapshot().save(path)
    graph = ExpandedGraph.from_edges(
        [],
        vertices=list(source.get_vertices()),
    )
    # rebuild the same logical graph, then adopt the mmap-backed load so the
    # algorithms run over the file's pages, not heap arrays
    for u, v in _edges_of(source):
        graph.add_edge(u, v)
    loaded = CSRGraph.load(path, mmap=True, source=graph)
    graph.adopt_snapshot(loaded)
    assert isinstance(graph.snapshot().offsets, memoryview)  # really mmap-backed
    return graph


def _edges_of(graph):
    for u in graph.get_vertices():
        for v in graph.get_neighbors(u):
            yield u, v


GRAPH_KEYS = [
    ("symmetric", name) for name in ("EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP")
] + [("directed", name) for name in ("EXP", "C-DUP", "DEDUP-1", "BITMAP")]


# --------------------------------------------------------------------------- #
# the algorithm matrix (one entry per repro.algorithms module)
# --------------------------------------------------------------------------- #
def _two_vertices(graph):
    return sorted(graph.get_vertices(), key=repr)[:2]


def _run_all(graph):
    """name -> (kind, result) for every algorithm module's kernels."""
    source, other = _two_vertices(graph)
    sample = sorted(graph.get_vertices(), key=repr)[:6]
    return {
        # 1. degree
        "degrees": ("int", algo.degrees(graph)),
        "max_degree_vertex": ("int", algo.max_degree_vertex(graph)),
        # 2. bfs
        "bfs_distances": ("int", algo.bfs_distances(graph, source)),
        "bfs_order": ("int", algo.bfs_order(graph, source)),
        "bfs_tree": ("int", algo.bfs_tree(graph, source)),
        "shortest_path": ("int", algo.shortest_path(graph, source, other)),
        # 3. pagerank
        "pagerank": ("float", algo.pagerank(graph)),
        # 4. connected components
        "components": ("int", algo.connected_components(graph)),
        "component_sizes": ("int", algo.component_sizes(graph)),
        # 5. label propagation
        "label_propagation": ("int", algo.label_propagation(graph, seed=2)),
        # 6. triangles
        "count_triangles": ("int", algo.count_triangles(graph)),
        "triangles_per_vertex": ("int", algo.triangles_per_vertex(graph)),
        "clustering_coefficient": ("float", algo.clustering_coefficient(graph, source)),
        # exact: one shaping of integer triangle counts on every backend
        "average_clustering": ("int", algo.average_clustering(graph)),
        # 7. shortest paths / diameter estimates
        "eccentricity": ("int", algo.eccentricity(graph, source)),
        "average_path_length": ("float", algo.average_path_length(graph, samples=5)),
        # 8. k-core
        "core_numbers": ("int", algo.core_numbers(graph)),
        "degeneracy_ordering": ("int", algo.degeneracy_ordering(graph)),
        # 9. centrality
        "degree_centrality": ("float", algo.degree_centrality(graph)),
        # exact: one shaping of integer tree stats on every backend
        "closeness_centrality": ("int", algo.closeness_centrality(graph)),
        "betweenness_centrality": ("float", algo.betweenness_centrality(graph)),
        # 10. similarity — exact: one implementation on every backend, so
        # floats to the bit and link predictions' tie order included
        "jaccard": ("int", algo.jaccard_coefficient(graph, source, other)),
        "adamic_adar": ("int", algo.adamic_adar(graph, source, other)),
        "common_neighbors": ("int", algo.common_neighbors(graph, source, other)),
        "preferential_attachment": (
            "int",
            algo.preferential_attachment(graph, source, other),
        ),
        "similarity_matrix": (
            "int",
            {score: algo.similarity_matrix(graph, sample, score) for score in SCORE_NAMES},
        ),
        "link_predictions": (
            "int",
            {score: algo.link_predictions(graph, k=1000, score=score) for score in SCORE_NAMES},
        ),
    }


def _assert_matches(reference, candidate, context):
    assert set(reference) == set(candidate)
    for name, (kind, expected) in reference.items():
        actual = candidate[name][1]
        if kind == "int":
            assert actual == expected, f"{context}/{name}: exact mismatch"
        elif isinstance(expected, dict):
            assert set(actual) == set(expected), f"{context}/{name}: key sets differ"
            worst = max(abs(actual[k] - expected[k]) for k in expected)
            assert worst <= FLOAT_TOLERANCE, f"{context}/{name}: off by {worst}"
        else:
            assert abs(actual - expected) <= FLOAT_TOLERANCE, f"{context}/{name}"


@pytest.mark.parametrize("kind,name", GRAPH_KEYS)
def test_numpy_matches_python_reference(families, monkeypatch, kind, name):
    graph = families[(kind, name)]
    monkeypatch.setenv(BACKEND_ENV_VAR, "python")
    reference = _run_all(graph)
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    candidate = _run_all(graph)
    _assert_matches(reference, candidate, f"{kind}/{name}")


def test_parity_on_mmap_loaded_snapshot(mmap_graph, monkeypatch):
    """Both backends run zero-copy over the mmap'd file and still agree."""
    monkeypatch.setenv(BACKEND_ENV_VAR, "python")
    reference = _run_all(mmap_graph)
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    candidate = _run_all(mmap_graph)
    assert isinstance(mmap_graph.snapshot().offsets, memoryview)  # never copied
    _assert_matches(reference, candidate, "mmap/EXP")


def test_mmap_snapshot_equals_heap_snapshot(families, mmap_graph, monkeypatch):
    """The mmap-loaded snapshot is semantically the saved graph."""
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    _assert_matches(
        _run_all(families[("symmetric", "EXP")]), _run_all(mmap_graph), "mmap-vs-heap"
    )


# --------------------------------------------------------------------------- #
# randomized kernel edge cases (self-loops, isolated vertices, empty graph)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
def test_random_directed_graphs_parity(monkeypatch, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    edges = [
        (rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randint(0, 4 * n))
    ]  # duplicates collapse logically; self-loops allowed
    graph = ExpandedGraph.from_edges(edges, vertices=list(range(n)))
    monkeypatch.setenv(BACKEND_ENV_VAR, "python")
    reference = _run_all(graph)
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    _assert_matches(reference, _run_all(graph), f"random-{seed}")


def test_empty_graph_both_backends(monkeypatch):
    graph = ExpandedGraph()
    for backend in ("python", "numpy"):
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        assert algo.pagerank(graph) == {}
        assert algo.degrees(graph) == {}
        assert algo.connected_components(graph) == {}
        assert algo.core_numbers(graph) == {}
        assert algo.count_triangles(graph) == 0
        assert algo.average_clustering(graph) == 0.0


# --------------------------------------------------------------------------- #
# selection order
# --------------------------------------------------------------------------- #
class TestBackendSelection:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend("python").name == "python"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend().name == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_auto_prefers_numpy_when_importable(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"
        assert get_backend("auto").name == "numpy"

    def test_process_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        previous = set_default_backend("python")
        try:
            assert get_backend().name == "python"
        finally:
            set_default_backend(previous)

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown kernel backend"):
            get_backend("fortran")
        with pytest.raises(UsageError):
            set_default_backend("fortran")

    def test_singletons_are_reused(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("python") is get_backend("python")

    def test_backend_names_are_stable(self):
        # worker processes re-resolve backends by this name
        assert get_backend("python").name == "python"
        assert get_backend("numpy").name == "numpy"


def test_pagerank_is_bit_identical_across_backends(families):
    """Stronger than the 1e-9 contract: the numpy PageRank folds the ``base``
    term into its sequential ``bincount`` scatter so every per-vertex float
    addition sequence equals the reference's, making the ranks — and the
    convergence stopping decision — bit-identical.  This test locks in that
    bincount accumulation order; if a numpy release ever changes it, this
    (not a knife-edge convergence flake) is what should fail."""
    for (kind, name), graph in families.items():
        csr = graph.snapshot()
        reference = get_backend("python").pagerank(csr, 0.85, 60, 1e-9)
        vectorised = get_backend("numpy").pagerank(csr, 0.85, 60, 1e-9)
        assert vectorised == reference, f"{kind}/{name}"
