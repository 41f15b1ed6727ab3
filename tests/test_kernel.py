"""Round-trip and caching tests for the CSR execution kernel.

The contract under test (see :mod:`repro.graph.kernel`):

* ``snapshot_edges`` → ``CSRGraph`` → decode preserves the vertex set, the
  logical edge set and vertex properties for every representation;
* vertex order and per-vertex target order equal the representation's
  ``get_vertices`` / ``get_neighbors`` iteration order, and rebuilding the
  snapshot of an unmodified graph reproduces the arrays element-wise;
* ``Graph.snapshot()`` caches per graph and invalidates on every structural
  mutation path (wrapper mutators, direct condensed-graph mutation, bitmap
  changes, DEDUP-2 membership changes).
"""

import pytest

from repro.dedup import deduplicate_dedup1, deduplicate_dedup2, preprocess_bitmap
from repro.exceptions import RepresentationError
from repro.graph import (
    CDupGraph,
    CSRGraph,
    ExpandedGraph,
    logical_edge_set,
)
from repro.graph.kernel import bfs_distances_kernel

from tests.conftest import (
    build_directed_condensed,
    build_multilayer_condensed,
    build_symmetric_condensed,
)


def all_representations():
    """(name, graph) pairs covering every representation family."""
    symmetric = build_symmetric_condensed(seed=13, num_real=30, num_virtual=12, max_size=6)
    directed = build_directed_condensed(seed=13, num_real=30, num_virtual=12, max_size=6)
    multilayer = build_multilayer_condensed(seed=13)
    expanded = ExpandedGraph.from_edges(
        [(u, v) for u in range(12) for v in range(12) if (u * 7 + v) % 5 == 0 and u != v]
    )
    return [
        ("EXP", expanded),
        ("C-DUP", CDupGraph(symmetric.copy())),
        ("C-DUP-directed", CDupGraph(directed.copy())),
        ("C-DUP-multilayer", CDupGraph(multilayer.copy())),
        ("DEDUP-1", deduplicate_dedup1(directed.copy(), seed=3)),
        ("DEDUP-2", deduplicate_dedup2(symmetric.copy())),
        ("BITMAP", preprocess_bitmap(directed.copy())),
        ("BITMAP-multilayer", preprocess_bitmap(multilayer.copy())),
    ]


@pytest.mark.parametrize("name,graph", all_representations())
class TestRoundTrip:
    def test_vertex_set_preserved(self, name, graph):
        snap = graph.snapshot()
        assert set(snap.external_ids) == set(graph.get_vertices())
        assert snap.n == graph.num_vertices()

    def test_edge_set_preserved(self, name, graph):
        snap = graph.snapshot()
        decoded = {
            (snap.external(u), snap.external(v)) for u, v in snap.iter_edges()
        }
        assert decoded == logical_edge_set(graph)

    def test_vertex_order_matches_get_vertices(self, name, graph):
        assert graph.snapshot().external_ids == list(graph.get_vertices())

    def test_target_order_matches_get_neighbors(self, name, graph):
        snap = graph.snapshot()
        for vertex in graph.get_vertices():
            index = snap.index(vertex)
            assert [snap.external(t) for t in snap.neighbors(index)] == list(
                graph.get_neighbors(vertex)
            )

    def test_snapshot_edges_hook_agrees(self, name, graph):
        """The bulk hook must produce exactly the per-vertex iterator view."""
        bulk = list(graph.snapshot_edges())
        assert [vertex for vertex, _ in bulk] == list(graph.get_vertices())
        for vertex, neighbors in bulk:
            assert neighbors == list(graph.get_neighbors(vertex))

    def test_deterministic_rebuild(self, name, graph):
        first = CSRGraph.from_graph(graph)
        second = CSRGraph.from_graph(graph)
        assert first.external_ids == second.external_ids
        assert first.offsets == second.offsets
        assert first.targets == second.targets

    def test_degrees_match(self, name, graph):
        snap = graph.snapshot()
        for vertex in graph.get_vertices():
            assert snap.out_degree(snap.index(vertex)) == graph.degree(vertex)


class TestProperties:
    def test_properties_survive_snapshot(self):
        graph = ExpandedGraph()
        graph.add_vertex("a", name="Alice", age=3)
        graph.add_vertex("b", name="Bob")
        graph.add_edge("a", "b")
        snap = graph.snapshot()
        assert snap.get_property(snap.index("a"), "name") == "Alice"
        assert snap.get_property(snap.index("a"), "age") == 3
        assert snap.get_property(snap.index("b"), "name") == "Bob"
        assert snap.get_property(snap.index("b"), "missing", 42) == 42

    def test_condensed_properties_survive_snapshot(self):
        condensed = build_symmetric_condensed(seed=5, num_real=10, num_virtual=4)
        condensed.node_properties[condensed.internal(0)] = {"label": "zero"}
        graph = CDupGraph(condensed)
        snap = graph.snapshot()
        assert snap.get_property(snap.index(0), "label") == "zero"


class TestCodec:
    def test_index_external_inverse(self):
        graph = ExpandedGraph.from_edges([("x", "y"), ("y", "z")])
        snap = graph.snapshot()
        for vertex in graph.get_vertices():
            assert snap.external(snap.index(vertex)) == vertex

    def test_unknown_vertex_raises(self):
        graph = ExpandedGraph.from_edges([(1, 2)])
        with pytest.raises(RepresentationError):
            graph.snapshot().index("nope")

    def test_decode_zips_in_order(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])
        snap = graph.snapshot()
        decoded = snap.decode([10 * (i + 1) for i in range(snap.n)])
        assert decoded == {snap.external_ids[i]: 10 * (i + 1) for i in range(snap.n)}

    def test_empty_graph(self):
        snap = ExpandedGraph().snapshot()
        assert snap.n == 0
        assert snap.num_edges == 0
        assert list(snap.offsets) == [0]

    def test_duplicate_external_ids_rejected(self):
        """Regression: the codec used to silently collapse duplicate external
        IDs (the dict index kept only the last), leaving decode/index
        inconsistent with the arrays.  Duplicates must fail loudly."""
        from array import array

        with pytest.raises(RepresentationError, match="duplicate external vertex IDs"):
            CSRGraph(array("q", [0, 0, 0]), array("q"), ["a", "a"])
        with pytest.raises(RepresentationError, match="'x'"):
            CSRGraph(array("q", [0, 0, 0, 0]), array("q"), ["x", "y", "x"])


class TestCaching:
    def test_snapshot_is_cached(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])
        assert graph.snapshot() is graph.snapshot()

    def test_expanded_mutations_invalidate(self):
        graph = ExpandedGraph.from_edges([(1, 2)])
        before = graph.snapshot()
        graph.add_edge(2, 3)
        after = graph.snapshot()
        assert after is not before
        assert after.num_edges == 2
        graph.delete_edge(1, 2)
        assert graph.snapshot().num_edges == 1
        graph.add_vertex(99)
        assert graph.snapshot().n == 4
        graph.delete_vertex(99)
        assert graph.snapshot().n == 3

    def test_direct_condensed_mutation_invalidates(self):
        condensed = build_symmetric_condensed(seed=2, num_real=10, num_virtual=3)
        graph = CDupGraph(condensed)
        before = graph.snapshot()
        virtual = condensed.add_virtual_node(("extra", 0))
        condensed.add_edge(condensed.internal(0), virtual)
        condensed.add_edge(virtual, condensed.internal(1))
        after = graph.snapshot()
        assert after is not before
        assert graph.exists_edge(0, 1) and after.index(1) in after.neighbor_set(after.index(0))

    def test_bitmap_mutation_invalidates(self):
        condensed = build_directed_condensed(seed=2, num_real=10, num_virtual=3)
        graph = preprocess_bitmap(condensed)
        before = graph.snapshot()
        virtual, source, bitmask = next(iter(graph.iter_bitmaps()))
        graph.set_bitmap(virtual, source, bitmask)
        assert graph.snapshot() is not before

    def test_dedup2_mutation_invalidates(self):
        graph = deduplicate_dedup2(build_symmetric_condensed(seed=3, num_real=10, num_virtual=3))
        before = graph.snapshot()
        graph.add_vertex("fresh")
        after = graph.snapshot()
        assert after is not before
        assert after.has_vertex("fresh")

    def test_set_property_does_not_invalidate(self):
        graph = ExpandedGraph.from_edges([(1, 2)])
        before = graph.snapshot()
        graph.set_property(1, "color", "red")
        assert graph.snapshot() is before
        # the snapshot still sees the new value (properties delegate)
        assert before.get_property(before.index(1), "color") == "red"


class TestTraversalKernels:
    def test_bfs_kernel_matches_api_bfs(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4), (5, 6)])
        snap = graph.snapshot()
        distances = bfs_distances_kernel(snap, snap.index(1))
        assert distances[snap.index(1)] == 0
        assert distances[snap.index(2)] == 1
        assert distances[snap.index(3)] == 2
        assert distances[snap.index(4)] == 1
        assert distances[snap.index(5)] == -1  # unreachable

    def test_is_symmetric(self):
        symmetric = ExpandedGraph.from_edges([(1, 2), (2, 1), (2, 3), (3, 2), (4, 4)])
        assert symmetric.snapshot().is_symmetric()
        directed = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        assert not directed.snapshot().is_symmetric()
        assert ExpandedGraph().snapshot().is_symmetric()

    def test_undirected_csr_symmetric_and_loop_free(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 1), (1, 1), (2, 3)])
        snap = graph.snapshot()
        offsets, targets = snap.undirected_csr()

        def row(index):
            return list(targets[offsets[index] : offsets[index + 1]])

        i1, i2, i3 = snap.index(1), snap.index(2), snap.index(3)
        assert row(i1) == [i2]
        assert row(i2) == sorted([i1, i3])
        assert row(i3) == [i2]


class TestKernelViewCaches:
    """The kernel-facing materialisations (offsets/targets lists, degrees,
    backend scratch such as NumPy views) are cached per snapshot instance.
    Snapshots are immutable, so the caches never go stale; a structural
    mutation bumps the graph's version counter, the next ``snapshot()``
    builds a fresh ``CSRGraph``, and the old caches die with it."""

    def test_materialisations_are_cached_per_snapshot(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        csr = graph.snapshot()
        assert csr.degrees() is csr.degrees()
        assert csr.offsets_list is csr.offsets_list
        assert csr.targets_list is csr.targets_list
        assert csr.undirected_csr() is csr.undirected_csr()

    def test_mmap_backed_snapshot_caches_too(self, tmp_path):
        from repro.graph import CSRGraph

        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        path = tmp_path / "snap.csr"
        graph.snapshot().save(path)
        loaded = CSRGraph.load(path, mmap=True)
        assert isinstance(loaded.offsets, memoryview)
        assert loaded.degrees() is loaded.degrees()
        assert loaded.targets_list is loaded.targets_list

    def test_backend_cache_is_per_snapshot_and_reused(self):
        pytest.importorskip("numpy")
        import numpy as np

        from repro.graph.backend.numpy_backend import _undirected_csr, _views

        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        csr = graph.snapshot()
        offsets, targets = _views(csr)
        assert _views(csr) is csr._backend_cache["np_views"]
        assert _views(csr)[0] is offsets and _views(csr)[1] is targets
        # zero-copy: the view reads the snapshot's own buffer
        assert np.shares_memory(offsets, np.frombuffer(csr.offsets, dtype=np.int64))
        assert _undirected_csr(csr) is _undirected_csr(csr)

    def test_version_bump_invalidates_through_fresh_snapshot(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])
        first = graph.snapshot()
        degrees_before = dict(zip(first.external_ids, first.degrees()))
        assert graph.snapshot() is first  # cached while unmodified
        graph.add_edge(1, 3)
        second = graph.snapshot()
        assert second is not first  # version counter invalidated the cache
        degrees_after = dict(zip(second.external_ids, second.degrees()))
        assert degrees_after[1] == degrees_before[1] + 1
        # the stale snapshot keeps its own (still self-consistent) caches
        assert dict(zip(first.external_ids, first.degrees())) == degrees_before
