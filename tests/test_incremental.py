"""Tests for the dynamic-algorithm subsystem (repro.incremental) and its
session / service wiring.

The contract under test:

* after k edge mutations, ``handle.refresh()`` (and a re-run plan) serve
  components and BFS **bit-identically** to a cold rebuild + recompute, and
  PageRank within L∞ 1e-9, on both kernel backends through BOTH execution
  paths (the PR-5 scheduler and the PR-6 compiler), with
  ``engine="incremental"`` and ``snapshot_source="base+delta"`` provenance;
* the maintainers are dense in, dense out (the registry's ``dense`` /
  ``shape`` pair is where external IDs appear), and each falls back
  (returns ``None``) exactly where its repair is not provably exact:
  components on any net removal, delta-BFS on a depth-limited previous
  result only — a removed shortest-path-tree edge is repaired — and the
  session then recomputes cold and resumes maintaining;
* what the retired fig20 stopwatch module asserted besides its ratio
  (provenance, bit-identical components, PageRank L∞) plus *work* pins that
  need no clock: an intra-component delta returns the previous labelling
  itself, a bulk delta is repaired in one pass of at most ``terms × m`` edge
  touches, a BFS removal repair resets only the vertices whose distance grew
  (``RepairCounters.bfs_resets``), the triangle repair processes only the
  pairs whose undirected adjacency changed
  (``RepairCounters.triangle_pairs``), no removal cycle of the ``bench/``
  schedule shape runs a cold BFS and no add-only cycle derives the reverse
  CSR, and that schedule's maintained / fallback tally is pinned;
* compaction and generation bumps invalidate stored positions (entries are
  dropped, not served stale);
* the incremental service carries cached results of maintainable
  algorithms over a mutation (evicting only the rest) and repairs each one
  when it is next read — no maintainer per write, one per read however many
  writes came first, none for an entry never read again — keeping LRU order
  and the handle's maintained state within the cache, with counters in
  ``/stats`` — also with readers racing a writer; ``triangles`` and
  ``clustering`` ride one ``triangle-counts`` vector, repaired by one
  maintainer run per window with no triangle pass, and kept while either
  result is cached;
* the wire codec round-trips the new provenance (``delta_edges``, report
  ``journal``) and decodes legacy payloads to defaults.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.graph import ExpandedGraph
from repro.graph.backend import get_backend, numpy_available
from repro.graph.delta import DeltaOverlay, JournaledGraph
from repro.graph.snapshot_store import peek_header, saves_in_thread
from repro.incremental import MAINTAINERS
from repro.incremental.base import RepairCounters
from repro.relational.database import Database
from repro.service import GraphService, decode_report, encode_report
from repro.service.codec import dumps, loads
from repro.session import GraphSession
from repro.session.plan import PLAN_ALGORITHMS

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: converging PageRank parameters: warm-vs-cold L∞ <= 1e-9 is only
#: guaranteed when both runs actually reach the tolerance
PAGERANK_PARAMS = {"tolerance": 1e-12, "max_iterations": 500}


def _random_symmetric_edges(n: int, m: int, seed: int) -> set[tuple[int, int]]:
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 2 * m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
            edges.add((v, u))
    return edges


def _build(edges: set[tuple[int, int]]) -> ExpandedGraph:
    graph = ExpandedGraph()
    for u, v in sorted(edges):
        graph.add_edge(u, v)
    return graph


def _add_undirected(graph, rng, count: int, pick) -> list[tuple[int, int]]:
    """Add ``count`` fresh undirected edges, endpoints drawn by ``pick(rng)``."""
    added = []
    while len(added) < count:
        u, v = pick(rng)
        if u != v and not graph.exists_edge(u, v):
            graph.add_edge(u, v)
            graph.add_edge(v, u)
            added.append((u, v))
    return added


def _anywhere(n: int):
    return lambda rng: (rng.randrange(n), rng.randrange(n))


def _mutate(graph, k: int, vertex_ceiling: int, seed: int) -> int:
    """Add ``k`` fresh symmetric edges (some touching new vertices)."""
    return len(_add_undirected(graph, random.Random(seed), k, _anywhere(vertex_ceiling)))


def _source_vertex(edges) -> int:
    return min(u for u, _ in edges)


def _dense(csr, values: dict) -> list:
    """A free function's result as the per-index vector its maintainer
    carries (``-1`` where a vertex has no entry: BFS unreached)."""
    return [values.get(vertex, -1) for vertex in csr.external_ids]


def _linf(a: dict, b: dict) -> float:
    assert set(a) == set(b)
    return max(abs(a[k] - b[k]) for k in a) if a else 0.0


def _partition(labels: dict) -> set[frozenset]:
    """A vertex → label mapping as the set of its classes."""
    classes: dict = {}
    for vertex, label in labels.items():
        classes.setdefault(label, set()).add(vertex)
    return {frozenset(members) for members in classes.values()}


# --------------------------------------------------------------------------- #
# maintainer kernels, straight against the registry contract
# --------------------------------------------------------------------------- #
class TestMaintainers:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_equivalence_after_insertions(self, backend_name):
        backend = get_backend(backend_name)
        edges = _random_symmetric_edges(40, 60, seed=3)
        graph = JournaledGraph(_build(edges))
        before = graph.snapshot()
        source = _source_vertex(edges)

        from repro.algorithms import bfs_distances, connected_components, pagerank

        prev = {
            "components": _dense(before, connected_components(graph)),
            "bfs": _dense(before, bfs_distances(graph, source)),
            "pagerank": _dense(before, pagerank(graph, **PAGERANK_PARAMS)),
        }
        untouched = {name: list(dense) for name, dense in prev.items()}
        position = graph.journal.total
        _mutate(graph, 12, 46, seed=17)
        csr = graph.snapshot()
        delta = DeltaOverlay(graph.journal.records_since(position))

        cold = {
            "components": connected_components(graph.inner),
            "bfs": bfs_distances(graph.inner, source),
            "pagerank": pagerank(graph.inner, **PAGERANK_PARAMS),
        }
        params = {
            "components": {},
            "bfs": {"source": source, "max_depth": None},
            "pagerank": dict(PAGERANK_PARAMS, damping=0.85),
        }
        assert csr.n > before.n  # the delta appended vertices past the prefix
        for name in ("components", "bfs"):
            maintained = MAINTAINERS[name](prev[name], csr, delta, params[name], backend)
            assert PLAN_ALGORITHMS[name].shape(csr, maintained) == cold[name], name
        warm = MAINTAINERS["pagerank"](
            prev["pagerank"], csr, delta, params["pagerank"], backend
        )
        assert _linf(PLAN_ALGORITHMS["pagerank"].shape(csr, warm), cold["pagerank"]) <= 1e-9
        assert prev == untouched  # maintainers treat the previous vector as read-only

    def test_components_falls_back_on_removal(self):
        backend = get_backend("python")
        graph = JournaledGraph(_build(_random_symmetric_edges(20, 30, seed=5)))
        from repro.algorithms import connected_components

        prev = _dense(graph.snapshot(), connected_components(graph))
        position = graph.journal.total
        u, v = next(iter(_random_symmetric_edges(20, 30, seed=5)))
        graph.delete_edge(u, v)
        delta = DeltaOverlay(graph.journal.records_since(position))
        assert (
            MAINTAINERS["components"](prev, graph.snapshot(), delta, {}, backend) is None
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_triangle_repair_processes_only_the_pairs_whose_adjacency_changed(self, backend_name):
        """``RepairCounters.triangle_pairs`` counts the netted undirected
        pairs: a removed-then-re-added edge, a one-directional add beside
        its reverse and a self-loop change no pair, so only the two real
        flips are processed."""
        backend = get_backend(backend_name)
        edges = {(u, v) for u in range(6) for v in range(6) if u != v and (u + v) % 3}
        graph = JournaledGraph(_build((edges - {(4, 3)}) | {(3, 4)}))
        before = graph.snapshot()
        prev = backend.triangles_per_vertex(before)
        position = graph.journal.total
        graph.delete_edge(0, 1)  # removed, then re-added
        graph.add_edge(0, 1)
        graph.add_edge(4, 3)  # beside 3 -> 4: {3, 4} stays adjacent
        graph.add_edge(2, 2)  # a self-loop is never a pair
        graph.add_edge(0, 3)  # flips {0, 3} on
        graph.delete_edge(1, 4)  # flips {1, 4} off
        graph.delete_edge(4, 1)
        after = graph.snapshot()
        delta = DeltaOverlay(graph.journal.records_since(position))

        def pairs(csr) -> set[frozenset]:
            ids = csr.external_ids
            return {frozenset((ids[u], ids[v])) for u, v in csr.iter_edges() if u != v}

        flipped = pairs(before) ^ pairs(after)
        assert flipped == {frozenset((0, 3)), frozenset((1, 4))}
        processed = RepairCounters.triangle_pairs
        maintained = MAINTAINERS["triangle-counts"](prev, after, delta, {}, backend)
        assert RepairCounters.triangle_pairs - processed == len(flipped)
        assert maintained == get_backend("python").triangles_per_vertex(after)

    def test_bfs_repairs_a_tree_edge_removal_but_not_a_depth_limited_result(self):
        backend = get_backend("python")
        # path 0-1-2-3: every edge is a tree edge from source 0
        graph = JournaledGraph(
            ExpandedGraph.from_edges(
                [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
            )
        )
        graph.snapshot()
        prev = [0, 1, 2, 3]
        position = graph.journal.total
        graph.delete_edge(1, 2)  # dist(2) == dist(1) + 1: a tree edge
        delta = DeltaOverlay(graph.journal.records_since(position))
        params = {"source": 0, "max_depth": None}
        csr = graph.snapshot()
        resets = RepairCounters.bfs_resets
        maintained = MAINTAINERS["bfs"](prev, csr, delta, params, backend)
        # 2 and 3 are cut off: both reset, neither reseeded
        assert maintained == [0, 1, -1, -1]
        assert RepairCounters.bfs_resets - resets == 2
        from repro.algorithms import bfs_distances

        assert PLAN_ALGORITHMS["bfs"].shape(csr, maintained) == bfs_distances(graph.inner, 0)
        # a depth-limited previous result can never be repaired
        assert (
            MAINTAINERS["bfs"](prev, csr, delta, {"source": 0, "max_depth": 2}, backend)
            is None
        )

    def test_bfs_ignores_non_tight_removals(self):
        backend = get_backend("python")
        # triangle 0-1-2 from source 0: dist(1) == dist(2) == 1 over the
        # direct edges, so the edge 1-2 (dist(2) != dist(1) + 1, and back)
        # lies on no shortest path and removing it changes no distance
        graph = JournaledGraph(
            ExpandedGraph.from_edges(
                [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
            )
        )
        graph.snapshot()
        prev = [0, 1, 1]
        position = graph.journal.total
        graph.delete_edge(1, 2)
        graph.delete_edge(2, 1)
        delta = DeltaOverlay(graph.journal.records_since(position))
        params = {"source": 0, "max_depth": None}
        csr = graph.snapshot()
        maintained = MAINTAINERS["bfs"](prev, csr, delta, params, backend)
        from repro.algorithms import bfs_distances

        assert PLAN_ALGORITHMS["bfs"].shape(csr, maintained) == bfs_distances(graph.inner, 0)
        assert "rev_csr" not in csr._backend_cache  # no in-neighbour was needed

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_reverse_csr_lists_every_in_edge_in_tail_order(self, backend_name):
        edges = _random_symmetric_edges(30, 40, seed=2) | {(3, 3), (4, 9)}
        csr = _build(edges).snapshot()
        offsets, sources = get_backend(backend_name).reverse_csr(csr)
        assert offsets.typecode == sources.typecode == "q"
        tails: dict[int, list[int]] = {}
        for u, v in csr.iter_edges():
            tails.setdefault(v, []).append(u)
        assert [list(sources[offsets[v] : offsets[v + 1]]) for v in range(csr.n)] == [
            tails.get(v, []) for v in range(csr.n)
        ]
        assert get_backend(backend_name).reverse_csr(csr) is csr._backend_cache["rev_csr"]


# --------------------------------------------------------------------------- #
# session wiring, both backends
# --------------------------------------------------------------------------- #
# (ids keep the "compiler-" prefix these cases have always had)
@pytest.mark.parametrize(
    "backend_name", BACKENDS, ids=[f"compiler-{name}" for name in BACKENDS]
)
class TestSessionEquivalence:
    def test_refresh_then_serve_matches_cold_rebuild(self, backend_name):
        edges = _random_symmetric_edges(40, 60, seed=7)
        source = _source_vertex(edges)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("inc"), backend=backend_name)
        handle = session.wrap(graph)

        def plan():
            return (
                handle.analyze()
                .components()
                .pagerank(**PAGERANK_PARAMS)
                .bfs(source=source)
            )

        cold = plan().run()
        assert [r.engine for r in cold] != ["incremental"] * 3
        assert cold.journal == {"pending": 0, "total": 0, "compactions": 0}

        k = _mutate(graph, 10, 46, seed=23)
        report = handle.refresh()
        assert report.snapshot_source == "base+delta"
        assert report.delta_edges == 2 * k
        assert sorted(report.maintained) == ["bfs", "components", "pagerank"]
        assert report.dropped == []

        warm = plan().run()
        assert [r.engine for r in warm] == ["incremental"] * 3
        assert all(r.scheduled == "inline" for r in warm)
        assert all(r.provenance.delta_edges == 2 * k for r in warm)
        assert warm.pool_starts == 0 and warm.snapshot_writes == 0
        assert warm.journal["pending"] == warm.journal["total"] > 0

        # equivalence against a cold rebuild + recompute of the mutated graph
        cold_session = GraphSession(Database("inc-cold"), backend=backend_name)
        cold_handle = cold_session.wrap(graph.inner)
        reference = (
            cold_handle.analyze()
            .components()
            .pagerank(**PAGERANK_PARAMS)
            .bfs(source=source)
        ).run()
        assert warm["components"].values == reference["components"].values
        assert warm["bfs"].values == reference["bfs"].values
        assert _linf(warm["pagerank"].values, reference["pagerank"].values) <= 1e-9

    def test_serve_without_refresh(self, backend_name):
        # a plan run straight after mutations serves incrementally too:
        # refresh() is a convenience, not a prerequisite
        edges = _random_symmetric_edges(30, 45, seed=9)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("inc2"), backend=backend_name)
        handle = session.wrap(graph)
        handle.analyze().components().run()
        _mutate(graph, 5, 36, seed=31)
        warm = handle.analyze().components().run()
        assert warm["components"].engine == "incremental"
        assert warm["components"].provenance.snapshot_source == "base+delta"
        assert any("incremental" in note for note in warm["components"].notes)
        from repro.algorithms import connected_components

        assert warm["components"].values == connected_components(graph.inner)
        # a report's values are freshly shaped, never the remembered vector:
        # scribbling on them cannot change the next answer (no new deltas)
        warm["components"].values.clear()
        again = handle.analyze().components().run()
        assert again["components"].engine == "incremental"
        assert again["components"].values == connected_components(graph.inner)


class TestFallbackAndInvalidation:
    def test_deletion_falls_back_to_kernel_then_resumes(self):
        edges = _random_symmetric_edges(30, 45, seed=13)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("inc3"), backend="python")
        handle = session.wrap(graph)
        handle.analyze().components().run()

        u, v = next(iter(edges))
        graph.delete_edge(u, v)
        report = handle.refresh()
        assert "components" in report.dropped
        assert report.maintained == []

        # the next run recomputes cold and re-seeds the incremental store
        cold = handle.analyze().components().run()
        assert cold["components"].engine != "incremental"
        _mutate(graph, 3, 36, seed=37)
        warm = handle.analyze().components().run()
        assert warm["components"].engine == "incremental"
        from repro.algorithms import connected_components

        assert warm["components"].values == connected_components(graph.inner)

    def test_depth_limited_bfs_is_never_maintained(self):
        edges = _random_symmetric_edges(20, 30, seed=15)
        source = _source_vertex(edges)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("inc4"), backend="python")
        handle = session.wrap(graph)
        handle.analyze().bfs(source=source, max_depth=2).run()
        _mutate(graph, 3, 26, seed=41)
        warm = handle.analyze().bfs(source=source, max_depth=2).run()
        assert warm["bfs"].engine != "incremental"

    def test_compaction_drops_stored_positions(self, tmp_path):
        edges = _random_symmetric_edges(10, 12, seed=19)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(
            Database("inc5"),
            backend="python",
            snapshot_cache=str(tmp_path / "snaps"),
        )
        # a tiny compact_fraction forces compaction on the very next fetch
        session.store.compact_fraction = 1e-9
        handle = session.wrap(graph)
        handle.analyze().components().run()
        _mutate(graph, 2, 12, seed=43)
        # the fetch compacts: positions recorded before the rebase predate
        # the new base, so the stored entry cannot be served
        report = handle.refresh()
        assert graph.journal.compactions == 1
        assert report.maintained == [] and "components" in report.dropped

    def test_a_pooled_plan_writes_the_merged_snapshot_once_and_keeps_the_journal(
        self, tmp_path
    ):
        """A pooled plan hands its workers a file of the merged snapshot.
        For a journaled graph with records pending, ``persist()`` writes it
        beside the ``.csr``, which stays the base the ``.csrd`` extends: one
        full write per write-then-plan cycle (two when ``persist()``
        overwrote the base and the next fetch rewrote it), none when nothing
        changed, and maintained results keep their journal window."""
        graph = JournaledGraph(_ring(400, seed=7))
        rng = random.Random(13)
        with GraphSession(
            Database("inc-pool"),
            backend="python",
            snapshot_cache=str(tmp_path / "snaps"),
            parallelism=2,
        ) as session:
            handle = session.wrap(graph)
            handle.analyze().pagerank(**RING_PAGERANK).closeness().run()
            writes = []
            for u in [rng.randrange(400) for _ in range(3)] + [None]:
                if u is not None:
                    graph.add_edge(u, (u + 200) % 400)
                before = saves_in_thread()
                report = handle.analyze().closeness().run()
                writes.append(saves_in_thread() - before)
                assert report["closeness"].scheduled == "pool"
            assert writes == [1, 1, 1, 0]
            store, key = session.store, handle.store_key
            assert peek_header(store.path_for(key)).content_hash == graph.journal.base_hash
            assert store.delta_path_for(key).exists()
            merged = peek_header(store.merged_path_for(key)).content_hash
            assert merged == handle.snapshot().content_hash
            again = handle.analyze().pagerank(**RING_PAGERANK).run()
            assert again["pagerank"].engine == "incremental"

    def test_generation_bump_drops_entries(self):
        edges = _random_symmetric_edges(12, 14, seed=21)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("inc6"), backend="python")
        handle = session.wrap(graph)
        handle.analyze().components().run()
        victim = next(iter(graph.get_vertices()))
        graph.delete_vertex(victim)  # rebaselines: generation bump
        warm = handle.analyze().components().run()
        assert warm["components"].engine != "incremental"
        from repro.algorithms import connected_components

        assert warm["components"].values == connected_components(graph.inner)


# --------------------------------------------------------------------------- #
# the ring of the retired Figure 20 module and of bench/'s mutate_refresh:
# what a refresh must report, and how much work it may do — no stopwatch
# --------------------------------------------------------------------------- #
RING_PAGERANK = {"tolerance": 1e-10, "max_iterations": 500}


def _ring(n: int, seed: int) -> ExpandedGraph:
    """Ring plus short random chords: heterogeneous degrees, a large
    diameter (corrections stay local), no dangling vertex."""
    rng = random.Random(seed)
    graph = ExpandedGraph()
    for i in range(n):
        for j in [(i + 1) % n] + ([(i + rng.randrange(2, 9)) % n] if rng.random() < 0.5 else []):
            graph.add_edge(i, j)
            graph.add_edge(j, i)
    return graph


def _local(n: int, base: int):
    """The small cycle's adds: both endpoints within ~160 vertices of ``base``."""
    return lambda rng: (
        (u := (base + rng.randrange(120)) % n),
        (u + rng.randrange(10, 40)) % n,
    )


def _ring_plan(handle):
    return handle.analyze().components().pagerank(**RING_PAGERANK).bfs(source=0)


#: bench/'s mutate_refresh ring at 1/20 size
BENCH_RING = 2000


def _bench_schedule(graph, handle):
    """bench/'s mutate_refresh schedule shape at 1/20 size, on a ring planned
    once already: small cycles (8 local adds), removals of an earlier small
    add, bulk cycles last.  Yields each cycle's kind and the report of the
    plan re-run after the cycle's refresh."""
    n = BENCH_RING
    rng = random.Random(11)
    m = handle.snapshot().num_edges
    removable: list[tuple[int, int]] = []
    for kind in ["small", "small", "removal", "small", "removal", "small", "removal", "bulk", "bulk"]:
        if kind == "small":
            removable += _add_undirected(graph, rng, 8, _local(n, rng.randrange(n)))
        elif kind == "removal":
            u, v = removable.pop(rng.randrange(len(removable)))
            graph.delete_edge(u, v)
            graph.delete_edge(v, u)
        else:
            _add_undirected(graph, rng, m // 60, _anywhere(n))
        handle.refresh()
        yield kind, _ring_plan(handle).run()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestRingRefresh:
    def test_refresh_reports_and_equals_a_cold_rebuild(self, backend_name):
        # Figure 20's assertions, minus its >= 5x wall-clock ratio
        n, k = 2000, 8
        graph = JournaledGraph(_ring(n, seed=5))
        handle = GraphSession(Database("fig20"), backend=backend_name).wrap(graph)

        def plan(h):
            return h.analyze().components().pagerank(**RING_PAGERANK)

        plan(handle).run()  # snapshot built, incremental state seeded
        _add_undirected(graph, random.Random(100), k, _local(n, 0))

        report = handle.refresh()
        warm = plan(handle).run()
        assert report.snapshot_source == "base+delta"
        assert report.delta_edges == 2 * k
        assert sorted(report.maintained) == ["components", "pagerank"]
        assert [r.engine for r in warm] == ["incremental", "incremental"]

        cold = plan(
            GraphSession(Database("fig20-cold"), backend=backend_name).wrap(graph.inner)
        ).run()
        assert warm["components"].values == cold["components"].values
        assert _linf(warm["pagerank"].values, cold["pagerank"].values) <= 1e-9

    def test_intra_component_delta_returns_the_previous_labelling(self, backend_name, monkeypatch):
        backend = get_backend(backend_name)
        n = 400
        graph = JournaledGraph(_ring(n, seed=5))
        from repro.algorithms import connected_components

        prev = _dense(graph.snapshot(), connected_components(graph))
        position = graph.journal.total
        _add_undirected(graph, random.Random(1), 8, _local(n, 50))
        delta = DeltaOverlay(graph.journal.records_since(position))
        monkeypatch.setattr(
            backend, "relabel_components", lambda *args: pytest.fail("relabel pass ran")
        )
        # the very same list: nothing was copied, nothing was renumbered
        assert MAINTAINERS["components"](prev, graph.snapshot(), delta, {}, backend) is prev

    def test_bulk_delta_is_repaired_in_one_pass(self, backend_name, monkeypatch):
        n = 3000
        graph = JournaledGraph(_ring(n, seed=5))
        session = GraphSession(Database("bulk"), backend=backend_name)
        handle = session.wrap(graph)
        _ring_plan(handle).run()
        m = handle.snapshot().num_edges
        _add_undirected(graph, random.Random(7), m // 60, _anywhere(n))

        backend = session.backend
        calls = {"pagerank": 0, "correction": 0}
        dense_kernel, correction = backend.pagerank, backend.pagerank_correction

        def count(name, kernel):
            def counted(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return counted

        monkeypatch.setattr(backend, "pagerank", count("pagerank", dense_kernel))
        monkeypatch.setattr(backend, "pagerank_correction", count("correction", correction))
        touched: list[int] = []
        if backend_name == "numpy":
            # every series term scatters exactly the edges it touches
            import numpy as np

            from repro.graph.backend import numpy_backend

            class Spy:
                def __getattr__(self, name):
                    return getattr(np, name)

                def bincount(self, x, **kwargs):
                    touched.append(len(x))
                    return np.bincount(x, **kwargs)

            monkeypatch.setattr(numpy_backend, "np", Spy())

        report = handle.refresh()
        warm = _ring_plan(handle).run()
        assert sorted(report.maintained) == ["bfs", "components", "pagerank"]
        assert [r.engine for r in warm] == ["incremental"] * 3
        # the wide frontier was neither refused nor tried sparsely and then
        # redone densely: one correction, no dense power iteration
        assert calls == {"pagerank": 0, "correction": 1}
        csr = handle.snapshot()
        if touched:
            assert len(touched) <= RING_PAGERANK["max_iterations"]
            assert sum(touched) <= len(touched) * csr.num_edges
            # once the frontier covered the graph every term is one sweep
            first_sweep = touched.index(csr.num_edges)
            assert set(touched[first_sweep:]) == {csr.num_edges}

        monkeypatch.undo()
        cold = _ring_plan(
            GraphSession(Database("bulk-cold"), backend=backend_name).wrap(graph.inner)
        ).run()
        assert warm["components"].values == cold["components"].values
        assert warm["bfs"].values == cold["bfs"].values
        assert _linf(warm["pagerank"].values, cold["pagerank"].values) <= 1e-9

    def test_bench_schedule_tally_is_the_parents(self, backend_name):
        graph = JournaledGraph(_ring(BENCH_RING, seed=11))
        handle = GraphSession(Database("tally"), backend=backend_name).wrap(graph)
        _ring_plan(handle).run()
        engines: dict[str, list[tuple[str, ...]]] = {"small": [], "removal": [], "bulk": []}
        for kind, report in _bench_schedule(graph, handle):
            engines[kind].append(tuple(r.engine for r in report))
        # every add-only cycle is maintained whole, bulk ones included ...
        assert set(engines["small"]) == set(engines["bulk"]) == {("incremental",) * 3}
        # ... a removal is never "repaired" by components, always by PageRank
        # and BFS (these chords are shortest-path edges, repaired in place):
        # 24 maintained, 3 fallbacks
        assert engines["removal"] == [("kernel", "incremental", "incremental")] * 3

    def test_removal_cycles_run_no_cold_bfs_and_add_only_cycles_no_reverse_csr(
        self, backend_name, monkeypatch
    ):
        graph = JournaledGraph(_ring(BENCH_RING, seed=11))
        session = GraphSession(Database("spy"), backend=backend_name)
        handle = session.wrap(graph)
        _ring_plan(handle).run()  # the one cold BFS
        calls = {"bfs_distances": 0, "sweep": 0, "reverse_csr": 0}
        # spied on the class: an instance attribute would outlive the test on
        # the shared backend object
        backend_class = type(session.backend)
        for name in calls:
            kernel = getattr(backend_class, name)

            def counted(self, *args, name=name, kernel=kernel, **kwargs):
                calls[name] += 1
                return kernel(self, *args, **kwargs)

            monkeypatch.setattr(backend_class, name, counted)
        per_cycle = []
        for kind, report in _bench_schedule(graph, handle):
            assert report["bfs"].engine == "incremental"
            per_cycle.append((kind, dict(calls)))
            calls.update(dict.fromkeys(calls, 0))
        assert {kind for kind, _ in per_cycle} == {"small", "removal", "bulk"}
        for kind, counts in per_cycle:
            assert counts["bfs_distances"] == counts["sweep"] == 0, kind
            # a reverse CSR is derived for the removals' tight edges only
            assert counts["reverse_csr"] == (kind == "removal"), kind

    def test_a_tight_chord_no_distance_depends_on_resets_nothing(self, backend_name):
        backend = get_backend(backend_name)
        graph = JournaledGraph(_ring(BENCH_RING, seed=5))
        csr = graph.snapshot()
        prev = backend.bfs_distances(csr, csr.index(0))
        offsets, sources = backend.reverse_csr(csr)

        def spare(u: int, v: int) -> bool:
            """``u -> v`` is tight, and ``v`` keeps another tight in-edge."""
            return prev[v] == prev[u] + 1 and any(
                w != u and prev[w] == prev[u] for w in sources[offsets[v] : offsets[v + 1]]
            )

        # a chord, not a ring edge, whose head has a second parent
        ids = csr.external_ids
        u, v = next(
            (ids[u], ids[v])
            for u, v in csr.iter_edges()
            if (ids[v] - ids[u]) % BENCH_RING not in (1, BENCH_RING - 1) and spare(u, v)
        )
        position = graph.journal.total
        graph.delete_edge(u, v)
        graph.delete_edge(v, u)
        after = graph.snapshot()
        delta = DeltaOverlay(graph.journal.records_since(position))
        resets = RepairCounters.bfs_resets
        params = {"source": 0, "max_depth": None}
        maintained = MAINTAINERS["bfs"](prev, after, delta, params, backend)
        assert RepairCounters.bfs_resets == resets
        assert maintained == prev
        assert maintained == backend.bfs_distances(after, after.index(0))

    def test_refresh_nets_one_window_once_for_its_entries(self, backend_name, monkeypatch):
        """Three maintained entries at one journal position: ``refresh()``
        nets their window into one overlay and hands every maintainer that
        overlay, instead of netting the same records once per entry."""
        deltas = []
        for name, maintain in list(MAINTAINERS.items()):

            def recording(prev, csr, delta, params, backend, maintain=maintain):
                deltas.append(delta)
                return maintain(prev, csr, delta, params, backend)

            monkeypatch.setitem(MAINTAINERS, name, recording)
        n = 600
        graph = JournaledGraph(_ring(n, seed=7))
        handle = GraphSession(Database("one-netting"), backend=backend_name).wrap(graph)
        _ring_plan(handle).run()
        _add_undirected(graph, random.Random(3), 8, _local(n, 40))
        report = handle.refresh()
        assert sorted(report.maintained) == ["bfs", "components", "pagerank"]
        assert len(deltas) == 3
        assert len({id(delta) for delta in deltas}) == 1

    def test_cold_inline_results_are_recorded_without_being_re_encoded(self, backend_name):
        """The plan hands the record the dense vector it shaped its value
        from; no encoder of dict results exists to fall back on."""
        import repro.incremental

        assert not hasattr(repro.incremental, "encode")
        n = 600
        graph = JournaledGraph(_ring(n, seed=7))
        handle = GraphSession(Database("dense"), backend=backend_name).wrap(graph)
        assert [r.engine for r in _ring_plan(handle).run()] == ["kernel"] * 3
        # a removal: components goes cold again and is re-recorded
        removable = _add_undirected(graph, random.Random(3), 8, _local(n, 40))
        handle.refresh()
        assert [r.engine for r in _ring_plan(handle).run()] == ["incremental"] * 3
        graph.delete_edge(*removable[0])
        graph.delete_edge(*removable[0][::-1])
        handle.refresh()
        assert [r.engine for r in _ring_plan(handle).run()] == ["kernel", "incremental", "incremental"]
        # ... and what was recorded is a vector the maintainers can carry on
        _add_undirected(graph, random.Random(4), 8, _local(n, 300))
        handle.refresh()
        warm = _ring_plan(handle).run()
        assert [r.engine for r in warm] == ["incremental"] * 3
        cold = _ring_plan(
            GraphSession(Database("dense-cold"), backend=backend_name).wrap(graph.inner)
        ).run()
        assert warm["components"].values == cold["components"].values
        assert warm["bfs"].values == cold["bfs"].values
        assert _linf(warm["pagerank"].values, cold["pagerank"].values) <= 1e-9


# --------------------------------------------------------------------------- #
# the incremental service: patch-instead-of-evict
# --------------------------------------------------------------------------- #
def _coauthor_service(**kwargs) -> GraphService:
    from tests.conftest import COAUTHOR_QUERY
    from tests.test_session import make_db

    session = GraphSession(make_db(), backend="python")
    return GraphService(session, session.graph(COAUTHOR_QUERY), **kwargs)


class TestIncrementalService:
    def test_mutation_patches_maintainable_entries(self):
        service = _coauthor_service(incremental=True)
        assert isinstance(service.handle.graph, JournaledGraph)
        payload = {
            "algorithms": [
                {"name": "pagerank", "params": dict(PAGERANK_PARAMS)},
                {"name": "components"},
                {"name": "degree"},  # no maintainer: must be evicted
            ]
        }
        cold = service.analyze(payload)
        assert cold.cache == {"hits": 0, "misses": 3, "queue_depth": 0}

        response = service.add_edge({"source": 1, "target": 4242})
        # carried forward (stale) vs evicted; the repairs wait for a read
        assert response["patched"] == 2
        assert response["invalidated"] == 1
        assert service.stats()["journal"]["patched"] == 0

        warm = service.analyze(payload)
        assert warm.cache["hits"] == 2 and warm.cache["misses"] == 1
        patched = {r.algorithm: r for r in warm if r.algorithm != "degree"}
        for result in patched.values():
            assert result.engine == "incremental"
            assert result.provenance.delta_edges >= 1

        stats = service.stats()["journal"]
        assert stats["patched"] == 2 and stats["evicted"] == 1
        assert stats["pending"] >= 1 and stats["total"] >= 1

        # patched values equal a cold recompute of the mutated graph
        from repro.algorithms import connected_components, pagerank

        inner = service.handle.graph.inner
        assert patched["components"].values == connected_components(inner)
        assert (
            _linf(patched["pagerank"].values, pagerank(inner, **PAGERANK_PARAMS))
            <= 1e-9
        )

    def test_a_write_carries_triangle_counts_and_a_read_repairs_them(self, monkeypatch):
        """``triangles`` and ``clustering`` share the ``triangle-counts``
        maintainer: a write carries both, and the next read repairs them
        without a per-vertex triangle pass."""
        service = _coauthor_service(incremental=True)
        payload = {"algorithms": [{"name": "triangles"}, {"name": "clustering"}, {"name": "degree"}]}
        assert service.analyze(payload)["triangles"].values == 5

        # 6 -> 1 closes the triangle 1-5-6 (author 5 shares a paper with both)
        response = service.add_edge({"source": 6, "target": 1})
        assert response["patched"] == 2
        assert response["invalidated"] == 1

        monkeypatch.setattr(
            type(service.session.backend),
            "triangles_per_vertex",
            lambda *args: pytest.fail("a cold triangle pass ran"),
        )
        warm = service.analyze(payload)
        monkeypatch.undo()
        assert warm.cache["hits"] == 2 and warm.cache["misses"] == 1
        assert {r.algorithm: r.engine for r in warm if r.algorithm != "degree"} == {
            "triangles": "incremental",
            "clustering": "incremental",
        }
        cold_session = GraphSession(Database("cold-triangles"), backend="python")
        cold = cold_session.wrap(service.handle.graph.inner).analyze().triangles().clustering().run()
        assert warm["triangles"].values == cold["triangles"].values == 6
        assert warm["clustering"].values == cold["clustering"].values

    def test_triangles_and_clustering_run_one_triangle_maintainer_per_window(self, monkeypatch):
        """One ``triangle-counts`` vector for both algorithms: a window is
        repaired once, whether the service's reads repair it or
        ``refresh()`` advances it, and both values stay a cold plan's."""
        calls = []
        maintain = MAINTAINERS["triangle-counts"]

        def spy(prev, csr, delta, params, backend):
            calls.append(id(prev))
            return maintain(prev, csr, delta, params, backend)

        monkeypatch.setitem(MAINTAINERS, "triangle-counts", spy)
        service = _coauthor_service(incremental=True)
        payload = {"algorithms": [{"name": "triangles"}, {"name": "clustering"}]}

        def assert_cold(report) -> None:
            session = GraphSession(Database("cold-shared"), backend="python")
            cold = session.wrap(service.handle.graph.inner).analyze().triangles().clustering().run()
            assert report["triangles"].values == cold["triangles"].values
            assert report["clustering"].values == cold["clustering"].values

        service.analyze(payload)
        service.add_edge({"source": 6, "target": 1})
        warm = service.analyze(payload)
        assert len(calls) == 1
        assert len(service.handle.maintained) == 1
        assert [r.engine for r in warm] == ["incremental", "incremental"]
        assert_cold(warm)

        service.add_edge({"source": 6, "target": 2})
        calls.clear()
        report = service.handle.refresh()
        assert len(calls) == 1
        assert sorted(report.maintained) == ["clustering", "triangles"]
        warm = service.analyze(payload)
        assert len(calls) == 1  # the reads find the window absorbed
        assert [r.engine for r in warm] == ["incremental", "incremental"]
        assert_cold(warm)

    def test_the_shared_vector_stays_while_either_result_is_cached(self):
        service = _coauthor_service(incremental=True, cache_size=2)
        service.analyze({"algorithm": "triangles"})
        service.analyze({"algorithm": "clustering"})
        assert len(service.handle.maintained) == 1
        service.analyze({"algorithm": "degree"})  # evicts triangles, the LRU
        assert len(service.handle.maintained) == 1
        service.add_edge({"source": 6, "target": 1})
        stale = service.analyze({"algorithm": "clustering"})
        assert stale.cache["hits"] == 1
        assert stale["clustering"].engine == "incremental"
        cold_session = GraphSession(Database("cold-forget"), backend="python")
        cold = cold_session.wrap(service.handle.graph.inner).analyze().clustering().run()
        assert stale["clustering"].values == cold["clustering"].values
        service.analyze({"algorithm": "degree"})
        service.analyze({"algorithm": "kcore"})  # evicts clustering
        assert len(service.handle.maintained) == 0

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_interleavings_agree_with_a_cold_recompute(self, backend_name, seed):
        """Writes and reads in random order: every answer — a fresh miss, a
        hit, or a stale entry repaired on read after any number of writes —
        equals a cold session on the mutated graph."""
        rng = random.Random(seed)
        edges = _random_symmetric_edges(24, 30, seed=seed)
        session = GraphSession(Database("lazy"), backend=backend_name)
        service = GraphService(
            session, session.wrap(JournaledGraph(_build(edges))), incremental=True, cache_size=6
        )
        reads = [
            ("pagerank", dict(PAGERANK_PARAMS)),
            ("pagerank", dict(PAGERANK_PARAMS, damping=0.7)),
            ("components", {}),
            ("bfs", {"source": _source_vertex(edges)}),
            ("degree", {}),
        ]
        engines = set()
        for _ in range(40):
            if rng.random() < 0.4:
                # vertices 24-27 are new; self-loops and repeats included
                service.add_edge({"source": rng.randrange(28), "target": rng.randrange(28)})
                continue
            name, params = rng.choice(reads)
            served = service.analyze({"algorithm": name, "params": params})[name]
            engines.add(served.engine)
            cold_session = GraphSession(Database("cold"), backend=backend_name)
            cold = cold_session.wrap(service.handle.graph.inner).analyze().add(name, **params).run()[name]
            if name == "pagerank":
                assert _linf(served.values, cold.values) <= 1e-9
            elif name == "components":
                assert _partition(served.values) == _partition(cold.values)
            else:
                assert served.values == cold.values
        assert "incremental" in engines

    def test_writes_run_no_maintainer_and_a_read_repairs_once(self, monkeypatch):
        calls = []
        for name, maintain in list(MAINTAINERS.items()):

            def spy(dense, csr, view, params, backend, name=name, maintain=maintain):
                calls.append((name, params.get("damping")))
                return maintain(dense, csr, view, params, backend)

            monkeypatch.setitem(MAINTAINERS, name, spy)
        service = _coauthor_service(incremental=True)
        read = {"algorithm": "pagerank", "params": dict(PAGERANK_PARAMS, damping=0.8)}
        unread = {"algorithm": "pagerank", "params": dict(PAGERANK_PARAMS, damping=0.6)}
        service.analyze(read)
        service.analyze(unread)
        for target in (4242, 4243, 4244):
            assert service.add_edge({"source": 1, "target": target})["patched"] == 2
        assert calls == []
        report = service.analyze(read)
        assert report.cache["hits"] == 1
        assert calls == [("pagerank", 0.8)]  # k = 3 writes, one maintainer call
        service.analyze(read)
        assert calls == [("pagerank", 0.8)]  # repaired once, then a plain hit
        # the entry nobody read again was never repaired
        assert service.cache.stats()["patched"] == 1

    def test_a_write_keeps_lru_order(self):
        service = _coauthor_service(incremental=True, cache_size=3)
        service.analyze({"algorithm": "pagerank"})
        service.analyze({"algorithm": "components"})
        service.analyze({"algorithm": "pagerank"})  # components is now the LRU
        service.add_edge({"source": 1, "target": 4242})
        service.analyze({"algorithm": "degree"})
        service.analyze({"algorithm": "kcore"})  # over capacity: evicts the LRU
        assert service.analyze({"algorithm": "pagerank"}).cache["hits"] == 1
        assert service.analyze({"algorithm": "components"}).cache["misses"] == 1

    def test_maintained_state_is_bounded_by_the_cache(self):
        service = _coauthor_service(incremental=True, cache_size=4)
        for step in range(10):
            service.analyze({"algorithm": "pagerank", "params": {"damping": 0.5 + step / 100}})
            if step % 3 == 0:
                service.add_edge({"source": 1, "target": 4242 + step})
            assert len(service.handle.maintained) <= 4
        service.add_edge({"source": 2, "target": 4300})
        service.analyze({"algorithm": "degree"})
        service.analyze({"algorithm": "kcore"})
        assert len(service.handle.maintained) <= 2

    def test_concurrent_writes_and_repairs_stay_consistent(self):
        """Readers race a writer on a small cache: every lookup is counted
        once, the maintained state stays within the cache, and the final
        answers equal a cold recompute."""
        service = _coauthor_service(incremental=True, cache_size=4)
        readers, rounds = 4, 12
        errors: list[BaseException] = []

        def read(index: int) -> None:
            try:
                for step in range(rounds):
                    damping = 0.8 + (index + step) % 6 / 100
                    service.analyze({"algorithm": "pagerank", "params": dict(PAGERANK_PARAMS, damping=damping)})
                    service.analyze({"algorithm": "components"})
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        def write() -> None:
            try:
                for target in range(5000, 5000 + rounds):
                    service.add_edge({"source": 1 + target % 6, "target": target})
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = service.cache.stats()
        assert stats["hits"] + stats["misses"] == readers * rounds * 2
        assert len(service.handle.maintained) <= 4

        from repro.algorithms import connected_components, pagerank

        final = service.analyze(
            {"algorithms": [{"name": "pagerank", "params": dict(PAGERANK_PARAMS, damping=0.8)}, {"name": "components"}]}
        )
        inner = service.handle.graph.inner
        assert final["components"].values == connected_components(inner)
        assert _linf(final["pagerank"].values, pagerank(inner, damping=0.8, **PAGERANK_PARAMS)) <= 1e-9

    def test_plain_service_still_evicts_everything(self):
        service = _coauthor_service()
        assert service.stats()["journal"] is None
        service.analyze({"algorithm": "components"})
        response = service.add_edge({"source": 1, "target": 4242})
        assert response["invalidated"] == 1
        assert response["patched"] == 0
        warm = service.analyze({"algorithm": "components"})
        assert warm.cache["misses"] == 1


# --------------------------------------------------------------------------- #
# wire codec: new provenance fields round-trip, legacy payloads default
# --------------------------------------------------------------------------- #
class TestCodecCompatibility:
    def _incremental_report(self):
        edges = _random_symmetric_edges(15, 20, seed=29)
        graph = JournaledGraph(_build(edges))
        session = GraphSession(Database("codec"), backend="python")
        handle = session.wrap(graph)
        handle.analyze().components().run()
        _mutate(graph, 3, 18, seed=47)
        return handle.analyze().components().run()

    def test_round_trip(self):
        report = self._incremental_report()
        assert report.journal is not None
        decoded = decode_report(loads(dumps(encode_report(report))))
        assert decoded.journal == report.journal
        assert decoded.provenance.delta_edges == report.provenance.delta_edges
        assert [r.provenance.delta_edges for r in decoded] == [
            r.provenance.delta_edges for r in report
        ]
        assert decoded["components"].values == report["components"].values

    def test_summary_surfaces_journal_counters(self):
        report = self._incremental_report()
        summary = report.summary()
        assert "delta journal:" in summary
        assert f"pending={report.journal['pending']}" in summary
        assert "delta_edges=" in summary
        assert "engine=incremental" in summary

    def test_legacy_payload_decodes_to_defaults(self):
        report = self._incremental_report()
        payload = encode_report(report)
        payload.pop("journal")
        payload["provenance"].pop("delta_edges")
        for result in payload["results"]:
            result["provenance"].pop("delta_edges")
        decoded = decode_report(payload)
        assert decoded.journal is None
        assert decoded.provenance.delta_edges == 0
        assert all(r.provenance.delta_edges == 0 for r in decoded)
