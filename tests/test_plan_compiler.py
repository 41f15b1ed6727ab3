"""Plan-compiler tests: CSE, shared sweeps, provenance, placement, and
bit-identity with the per-request kernel runners.

The compiler's contract (:mod:`repro.session.compiler`) is that lowering a
plan into a deduplicated node DAG changes *scheduling*, never *values*:

* the reference matrix — every registry algorithm on symmetric and directed
  graphs, both kernel backends, parallelism 1 / 2 / 4 — asserts each result
  equals ``PLAN_ALGORITHMS[name].kernel(csr, backend, params)`` exactly,
  floats included (``==``, no tolerance);
* **one DAG at every parallelism** — a Hypothesis property over request
  lists drawn from the whole registry: node keys and kinds,
  ``nodes_computed``, the ``sweep_traversals`` delta and every value are
  equal at ``parallelism`` 1, 2 and 3 on both backends, and every engine
  is ``kernel``, ``chunks`` or ``incremental``; the two slice forms are
  pinned exact (ranged triangle vectors add up, the strided source split
  covers each source once);
* how each request was placed (engine, scheduling, notes, pool starts,
  snapshot writes) is pinned by a literal table;
* CSE is regression-tested at the node level through the compiler's
  instrumentation counters: a ``closeness + diameter + betweenness`` batch
  performs the BFS/Brandes sweep **once** (``sweep_traversals`` moves by
  exactly ``n``), and duplicate requests execute once with the second result
  reporting ``reused``;
* the symmetrised-CSR satellite: ``und_csr`` lives in the snapshot's
  backend-neutral ``_backend_cache`` under one key, built once and shared by
  both backends (numpy wraps it zero-copy).
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings

from repro.exceptions import RepresentationError, UsageError
from repro.graph import snapshot_store
from repro.graph.backend import get_backend, numpy_available
from repro.graph import CDupGraph
from repro.relational.database import Database
from repro.session import AnalysisPlan, GraphSession, NodeProvenance
from repro.session.plan import PLAN_ALGORITHMS
from repro.session.scheduler import PlanWorker
from repro.session.compiler import (
    CompilerCounters,
    SweepPlan,
    Node,
    _execute_sweep,
    compile_plan,
    place_on_pool,
)
from repro.vertexcentric.parallel import ParallelSuperstepExecutor, partition_range

from tests.conftest import build_parity_family, build_symmetric_condensed
from tests.test_plan_scheduling import ALL_ALGORITHM_REQUESTS
from tests.test_property_invariants import plans_over_condensed

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module")
def families():
    return {
        kind: build_parity_family(kind, seed=47, num_real=36, num_virtual=12, max_size=6)
        for kind in ("symmetric", "directed")
    }


@pytest.fixture(scope="module")
def family(families):
    return families["symmetric"]


def _session(parallelism, backend, **kwargs):
    return GraphSession(
        Database("compiler"), backend=backend, parallelism=parallelism, **kwargs
    )


def _full_plan(handle, source):
    plan = handle.analyze()
    for name, params in ALL_ALGORITHM_REQUESTS:
        if name == "bfs":
            params = dict(params, source=source)
        plan.add(name, **params)
    return plan


def _counters():
    return (
        CompilerCounters.plans_compiled,
        CompilerCounters.nodes_computed,
        CompilerCounters.nodes_reused,
        CompilerCounters.sweep_traversals,
    )


# --------------------------------------------------------------------------- #
# bit-identity: plan == per-request kernel runner, every algorithm x graph
# kind x backend x parallelism
# --------------------------------------------------------------------------- #
def _assert_matches_kernel_runners(report, csr, backend):
    """Every result equals its registry kernel runner exactly — the entry
    points ``tests/test_api_compat.py`` pins the free functions to."""
    for result in report:
        want = PLAN_ALGORITHMS[result.algorithm].kernel(csr, get_backend(backend), result.params)
        assert result.values == want, f"{result.label} diverged from its kernel runner"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_plan_matches_per_request_kernel_runners_exactly(families, kind, backend, parallelism):
    graph = families[kind]["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    handle = _session(parallelism, backend).wrap(graph)
    report = _full_plan(handle, source).run()
    _assert_matches_kernel_runners(report, handle.snapshot(), backend)
    assert all(result.nodes for result in report)


# --------------------------------------------------------------------------- #
# one DAG at every parallelism (the routing contract, as one property)
# --------------------------------------------------------------------------- #
def _dag(report):
    """Everything about a report that placement must not move."""
    return (
        [(node.key, node.kind) for node in report.nodes()],
        [[(node.key, node.kind, node.status) for node in result.nodes] for result in report],
        report.nodes_computed,
        report.nodes_reused,
        [result.values for result in report],
    )


@settings(max_examples=40, deadline=None)
@given(plans_over_condensed())
def test_property_one_dag_at_every_parallelism(case):
    """Request lists over the whole registry (duplicates, sampled / full /
    oversampled betweenness, bfs with and without ``max_depth``, directed
    and symmetric graphs, ``n`` from 0 so some partitions are empty): node
    keys and kinds, ``nodes_computed``, the ``sweep_traversals`` delta and
    every value — floats included, pagerank included — are ``==`` at
    parallelism 1, 2 and 3 on both backends, and no result leaves the
    ``kernel | chunks | incremental`` engines."""
    condensed, requests = case

    def run(backend, **options):
        with GraphSession(Database("one_dag"), backend=backend, **options) as session:
            # a fresh wrapper per run: every run builds its own snapshot
            plan = session.wrap(CDupGraph(condensed)).analyze()
            for algorithm, params in requests:
                plan.add(algorithm, **params)
            swept_before = CompilerCounters.sweep_traversals
            report = plan.run()
            swept = CompilerCounters.sweep_traversals - swept_before
        for result in report:
            assert result.engine in {"kernel", "chunks", "incremental"}, result.label
            assert (result.scheduled == "pool") == (result.engine == "chunks")
        return report, swept

    for backend in BACKENDS:
        serial, serial_swept = run(backend)
        assert serial.pool_starts == 0
        assert all(result.engine == "kernel" for result in serial)
        for parallelism in (2, 3):
            placed, swept = run(backend, parallelism=parallelism)
            assert _dag(placed) == _dag(serial), f"parallelism={parallelism} on {backend}"
            assert swept == serial_swept
            assert placed.pool_starts == int(any(r.engine == "chunks" for r in placed))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_ranged_triangle_vectors_add_up_under_every_split(families, kind, backend):
    """The ``triangle-counts`` slice form: each triangle is attributed to its
    smallest vertex, so the ranged per-vertex vectors of any
    ``partition_range`` split (empty tail ranges included) sum to the
    whole-graph vector exactly, and ``count_triangles`` is its sum / 3."""
    csr = families[kind]["C-DUP"].snapshot()
    kernels = get_backend(backend)
    whole = kernels.triangles_per_vertex(csr)
    assert sum(whole) > 0 and sum(whole) % 3 == 0
    assert kernels.count_triangles(csr) == sum(whole) // 3
    for parts in range(1, csr.n + 3):
        partials = [
            kernels.triangles_per_vertex(csr, lo, hi) for lo, hi in partition_range(csr.n, parts)
        ]
        assert [sum(column) for column in zip(*partials)] == whole, parts


class _SlicePool:
    """``parts`` in-process :class:`PlanWorker` s behind the pool's ``call``
    surface, recording the payloads each was handed."""

    def __init__(self, parts, csr, backend):
        self.partitions = partition_range(csr.n, parts)
        self._worker = PlanWorker(csr, 0, csr.n, backend)
        self.payloads = None

    def call(self, method, payloads):
        assert len(payloads) == len(self.partitions)
        self.payloads = payloads
        return [getattr(self._worker, method)(payload) for payload in payloads]


@pytest.mark.parametrize("backend", BACKENDS)
def test_strided_sweep_split_covers_each_source_once(family, backend):
    """The sweep's slice form: ``sources[k::parts]`` hands every source to
    exactly one worker — with more workers than sources (empty slices) and
    with one — and the merged products equal the inline sweep's."""
    csr = family["C-DUP"].snapshot()
    kernels = get_backend(backend)
    sources = [7, 3, 11, 0, 5]
    brandes = {3, 0}

    def sweep_over(pool):
        sweep = SweepPlan(
            node=Node(key="sweep", kind="sweep"),
            sources=list(sources),
            delta_sources=set(brandes),
            dist_sources={11},
        )
        _execute_sweep(sweep, csr, kernels, pool)
        return sweep

    inline = sweep_over(None)
    for parts in (1, 2, len(sources), len(sources) + 3):
        pool = _SlicePool(parts, csr, kernels)
        sliced = sweep_over(pool)
        handed = [source for payload in pool.payloads for source, _, _ in payload]
        assert sorted(handed) == sorted(sources), parts
        assert [len(payload) for payload in pool.payloads].count(0) == max(0, parts - len(sources))
        assert sliced.stats == inline.stats and sliced.dists == inline.dists
        assert sliced.deltas.keys() == brandes
        for source in brandes:
            assert kernels.tree_delta(sliced.deltas[source]) == kernels.tree_delta(
                inline.deltas[source]
            )


# --------------------------------------------------------------------------- #
# placement: a literal table — label -> (engine, scheduled,
# provenance.parallelism, one substring per note)
# --------------------------------------------------------------------------- #
P = "the session's parallelism"

LABELS = [
    "degree", "pagerank", "pagerank#2", "components", "bfs", "kcore", "triangles",
    "clustering", "label_propagation", "closeness", "betweenness", "betweenness#2",
    "diameter", "link_predictions",
]  # fmt: skip
#: parallelism == 1, either graph kind: pool_starts == snapshot_writes == 0
ROUTING_INLINE = {label: ("kernel", "inline", 1, ()) for label in LABELS}
#: parallelism 2 and 4, either graph kind (pool_starts == snapshot_writes ==
#: 1): the one sliced node is the triangle pass.  The full plan's sweep
#: streams ``betweenness#2``'s full-source total, so it stays — fused, with
#: closeness, both betweenness, diameter and bfs — on the coordinator
ROUTING_POOLED = dict(
    ROUTING_INLINE, triangles=("chunks", "pool", P, ()), clustering=("chunks", "pool", P, ())
)


def _assert_routed(report, table, parallelism):
    assert report.labels() == list(table)
    for result in report:
        engine, scheduled, workers, notes = table[result.label]
        assert (result.engine, result.scheduled) == (engine, scheduled), result.label
        assert result.provenance.parallelism == (parallelism if workers is P else workers)
        assert len(result.notes) == len(notes), (result.label, result.notes)
        assert all(want in got for want, got in zip(notes, result.notes)), result.label


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_routing_matches_the_literal_table(families, kind, backend, parallelism):
    graph = families[kind]["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    report = _full_plan(_session(parallelism, backend).wrap(graph), source).run()
    pooled = parallelism > 1
    _assert_routed(report, ROUTING_POOLED if pooled else ROUTING_INLINE, parallelism)
    assert (report.pool_starts, report.snapshot_writes) == ((1, 1) if pooled else (0, 0))
    assert report.provenance.parallelism == parallelism


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parallel_matches_compiled_serial(family, backend):
    """Compiled at parallelism 4 == compiled at parallelism 1, pagerank
    included."""
    graph = family["EXP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    serial = _full_plan(_session(1, backend).wrap(graph), source).run()
    parallel = _full_plan(_session(4, backend).wrap(graph), source).run()
    for got, want in zip(parallel, serial):
        assert got.values == want.values, got.label


# --------------------------------------------------------------------------- #
# CSE: shared sweeps and duplicate requests, asserted at the node level
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_is_shared_across_closeness_diameter_betweenness(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    n = handle.snapshot().n
    before = _counters()
    report = (
        handle.analyze()
        .closeness()
        .diameter(samples=5, seed=1)
        .betweenness(sample_size=7, seed=2)
        .run()
    )
    plans, computed, _, swept = (now - then for now, then in zip(_counters(), before))
    assert plans == 1
    # ONE traversal per vertex serves all three requests; run one by one the
    # kernels pay n (closeness) + 5 (diameter) + 7 (betweenness) traversals
    assert swept == n
    # nodes executed: the sweep + three finalisers (snapshot was a cache hit
    # from the n probe above, so it is not computed by this plan)
    assert computed == 4
    sweeps = {
        result.label: [node for node in result.nodes if node.kind == "sweep"]
        for result in report
    }
    assert all(len(nodes) == 1 for nodes in sweeps.values())
    keys = {nodes[0].key for nodes in sweeps.values()}
    assert len(keys) == 1, "all three requests must share one sweep node"
    assert sweeps["closeness"][0].status == "computed"
    assert sweeps["diameter"][0].status == "reused"
    assert sweeps["betweenness"][0].status == "reused"
    assert report.nodes_reused >= 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_requests_compute_once_and_report_reused(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    handle.snapshot()
    before = _counters()
    report = (
        handle.analyze()
        .pagerank(max_iterations=9, tolerance=0.0)
        .pagerank(max_iterations=9, tolerance=0.0)
        .pagerank(max_iterations=10, tolerance=0.0)
        .run()
    )
    _, computed, reused, _ = (now - then for now, then in zip(_counters(), before))
    # two distinct pagerank nodes executed; the duplicate resolved to the first
    assert computed == 2
    assert report["pagerank"].values == report["pagerank#2"].values
    assert not report["pagerank"].reused
    assert report["pagerank#2"].reused
    assert not report["pagerank#3"].reused
    assert report["pagerank#3"].values != report["pagerank#2"].values or True
    # the duplicate's own algo node plus its snapshot reuse are both counted
    assert reused >= 2
    assert report.nodes_reused == reused


def test_bfs_joins_the_sweep_only_when_it_covers_every_source(family):
    graph = family["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    # closeness sweeps every source at parallelism 1 -> bfs rides along
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .bfs(source=source)
        .run()
    )
    assert any(node.kind == "sweep" for node in report["bfs"].nodes)
    assert report["bfs"].nodes[-1].status == "computed"
    # without a covering demand, bfs keeps its own kernel
    lone = (
        _session(1, "python").wrap(graph).analyze().bfs(source=source).run()
    )
    assert not any(node.kind == "sweep" for node in lone["bfs"].nodes)


def test_full_source_betweenness_streams_through_the_sweep_serially(family):
    """Unsampled betweenness joins the sweep (a streamed running total in
    serial source order) at every parallelism — the stream exception: one
    ordered float accumulation is never sliced, so the whole fused sweep
    stays on the coordinator and the plan forks no pool for it."""
    graph = family["C-DUP"]
    reports = {
        parallelism: _session(parallelism, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .betweenness()
        .run()
        for parallelism in (1, 2)
    }
    for report in reports.values():
        assert any(node.kind == "sweep" for node in report["betweenness"].nodes)
        assert report.pool_starts == 0
        for result in report:
            assert (result.engine, result.scheduled, result.notes) == ("kernel", "inline", ())
    assert reports[1]["betweenness"].values == reports[2]["betweenness"].values


def test_a_sweep_without_a_stream_is_sliced_with_every_rider(family):
    """closeness + diameter + sampled betweenness + bfs at parallelism 2:
    one fused sweep, split by source over one pool, every consumer reporting
    the ``chunks`` engine — and the same values as at parallelism 1."""
    graph = family["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]

    def run(parallelism):
        plan = _session(parallelism, "python").wrap(graph).analyze()
        return (
            plan.closeness()
            .diameter(samples=4, seed=1)
            .betweenness(sample_size=6, seed=2)
            .bfs(source=source)
            .degree()
            .run()
        )

    serial, sliced = run(1), run(2)
    assert sliced.pool_starts == 1 and serial.pool_starts == 0
    for result in sliced:
        rides = result.label != "degree"
        assert any(node.kind == "sweep" for node in result.nodes) == rides
        assert (result.engine, result.scheduled) == (
            ("chunks", "pool") if rides else ("kernel", "inline")
        )
        assert result.provenance.parallelism == (2 if rides else 1)
        assert result.notes == ()
    assert [r.values for r in sliced] == [r.values for r in serial]
    assert [n.key for n in sliced.nodes()] == [n.key for n in serial.nodes()]


@pytest.mark.parametrize("backend", BACKENDS)
def test_derived_view_nodes_are_shared_and_attributed_once(family, backend):
    graph = family["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    report = (
        handle.analyze().components().kcore().triangles().clustering().degree().run()
    )
    und = {
        result.label: [node for node in result.nodes if node.key == "und-csr"]
        for result in report
    }
    # components works off the directed edge list on every backend: it is no
    # consumer of the symmetrised view, first in the plan or not
    assert und.pop("components") == [] and und.pop("degree") == []
    assert all(len(nodes) == 1 for nodes in und.values())
    assert und["kcore"][0].status == "computed"
    assert und["triangles"][0].status == "reused"
    assert und["clustering"][0].status == "reused"
    # the report-level digest counts the derivation once
    assert sum(1 for node in report.nodes() if node.key == "und-csr") == 1
    # a degree + components plan schedules no derivation of it at all
    light = handle.analyze().degree().components().run()
    assert not [node for node in light.nodes() if node.key == "und-csr"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_triangles_and_clustering_share_one_triangle_pass(families, kind, backend, monkeypatch):
    graph = families[kind]["C-DUP"]
    handle = _session(1, backend).wrap(graph)
    passes = []
    cls = type(get_backend(backend))
    monkeypatch.setattr(
        cls,
        "triangles_per_vertex",
        lambda self, csr, _real=cls.triangles_per_vertex: passes.append(1) or _real(self, csr),
    )
    report = handle.analyze().triangles().clustering().run()
    shared = {
        result.label: [node for node in result.nodes if node.key == "triangle-counts"]
        for result in report
    }
    assert [node.status for node in shared["triangles"]] == ["computed"]
    assert [node.status for node in shared["clustering"]] == ["reused"]
    assert shared["triangles"][0].kind == "derive"
    # a node value, not a snapshot cache entry: a hot re-run computes it again, once
    handle.analyze().clustering().triangles().run()
    assert len(passes) == 2
    assert not any("triangle" in key for key in handle.snapshot()._backend_cache)
    monkeypatch.undo()
    _assert_matches_kernel_runners(report, handle.snapshot(), backend)


# --------------------------------------------------------------------------- #
# scheduling invariants survive compilation
# --------------------------------------------------------------------------- #
def test_compiled_plan_keeps_one_pool_and_one_snapshot_file(family):
    graph = family["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    report = _full_plan(_session(4, "python").wrap(graph), source).run()
    assert report.pool_starts == 1
    assert report.snapshot_writes <= 1


def test_compiled_serial_plan_never_forks_or_writes(family):
    graph = family["C-DUP"]
    pool_before = ParallelSuperstepExecutor.started_total
    writes_before = snapshot_store.SAVE_COUNT
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .diameter()
        .betweenness(sample_size=5)
        .run()
    )
    assert report.pool_starts == 0
    assert report.snapshot_writes == 0
    assert ParallelSuperstepExecutor.started_total == pool_before
    assert snapshot_store.SAVE_COUNT == writes_before


def test_there_is_one_executor_and_no_switch():
    assert list(inspect.signature(AnalysisPlan.run).parameters) == ["self"]
    assert not any("compile" in name for name in inspect.signature(GraphSession).parameters)
    assert not hasattr(AnalysisPlan, "_route")


def test_compiled_caller_mistakes_keep_their_types(family):
    graph = family["C-DUP"]
    handle = _session(1, "python").wrap(graph)
    with pytest.raises(RepresentationError, match="not in the graph"):
        handle.analyze().closeness().bfs(source="nope").run()
    with pytest.raises(UsageError, match="empty"):
        handle.analyze().run()


def test_compiled_empty_and_tiny_graphs_fall_back_to_inline_kernels():
    from repro.graph import CDupGraph, CondensedGraph

    tiny = CondensedGraph()
    tiny.add_real_node(0)
    tiny.add_real_node(1)
    handle = _session(1, "python").wrap(CDupGraph(tiny))
    report = handle.analyze().closeness().betweenness().diameter().run()
    _assert_matches_kernel_runners(report, handle.snapshot(), "python")
    # n <= 2 betweenness is the kernel's early-exit, not a sweep product
    assert not any(node.kind == "sweep" for node in report["betweenness"].nodes)


# --------------------------------------------------------------------------- #
# provenance surfaces
# --------------------------------------------------------------------------- #
def test_node_provenance_shape_and_summary(family):
    graph = family["C-DUP"]
    report = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .closeness()
        .run()
    )
    first, second = report.results
    assert [node.kind for node in first.nodes] == ["snapshot", "sweep", "algo"]
    assert isinstance(first.nodes[0], NodeProvenance)
    assert first.nodes[-1].key == "algo:closeness"
    assert first.nodes[-1].status == "computed"
    assert second.nodes[-1].status == "reused"
    assert second.reused and not first.reused
    text = report.summary()
    assert "nodes:" in text
    assert "algo:closeness=reused" in text
    # sweep + algo node always; the snapshot too when it wasn't a cache hit
    assert report.nodes_computed >= 2
    # report.nodes() deduplicates shared nodes, keeping the first consumer
    keys = [node.key for node in report.nodes()]
    assert len(keys) == len(set(keys)) == 3


def test_snapshot_node_reports_cache_reuse():
    from repro.graph import CDupGraph

    graph = CDupGraph(
        build_symmetric_condensed(seed=13, num_real=12, num_virtual=4, max_size=4)
    )
    handle = _session(1, "python").wrap(graph)
    fresh = handle.analyze().degree().run()
    assert fresh[0].nodes[0].key == "snapshot"
    assert fresh[0].nodes[0].status == "computed"
    warm = handle.analyze().degree().run()
    assert warm[0].nodes[0].status == "reused"
    assert warm.provenance.snapshot_source == "cache-hit"


# --------------------------------------------------------------------------- #
# satellite: the symmetrised CSR is derived once, shared across backends
# --------------------------------------------------------------------------- #
def test_undirected_csr_cached_backend_neutral_once():
    graph = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    )
    csr = graph.snapshot()
    offsets, targets = csr.undirected_csr()
    assert "und_csr" in csr._backend_cache
    assert offsets.typecode == targets.typecode == "q"
    again_offsets, again_targets = csr.undirected_csr()
    assert again_offsets is offsets and again_targets is targets
    # rows are sorted (binary-search / vectorised-membership ready)
    for v in range(csr.n):
        row = list(targets[offsets[v] : offsets[v + 1]])
        assert row == sorted(row)
    # the python backend's set view is built from the same cached arrays
    sets = csr.undirected_sets()
    for v in range(csr.n):
        assert sets[v] == set(targets[offsets[v] : offsets[v + 1]])


@pytest.mark.skipif(not numpy_available(), reason="numpy backend not available")
def test_numpy_wraps_the_neutral_undirected_csr_zero_copy():
    import numpy as np

    from repro.graph.backend.numpy_backend import _undirected_csr

    graph = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    )
    csr = graph.snapshot()
    offsets, targets = csr.undirected_csr()
    np_offsets, np_targets = _undirected_csr(csr)
    assert np.shares_memory(np_offsets, np.frombuffer(offsets, dtype=np.int64))
    assert np.shares_memory(np_targets, np.frombuffer(targets, dtype=np.int64))
    # and the reverse direction: a numpy-first derivation publishes the
    # neutral arrays for the python backend to consume
    fresh = CDupGraph(
        build_symmetric_condensed(seed=9, num_real=20, num_virtual=6, max_size=5)
    ).snapshot()
    _undirected_csr(fresh)
    assert "und_csr" in fresh._backend_cache
    neutral_offsets, neutral_targets = fresh._backend_cache["und_csr"]
    sets = fresh.undirected_sets()
    for v in range(fresh.n):
        assert sets[v] == set(neutral_targets[neutral_offsets[v] : neutral_offsets[v + 1]])


# --------------------------------------------------------------------------- #
# the sweep runs on the session's backend
# --------------------------------------------------------------------------- #
def test_cost_model_inline_backend_choice_respects_float_demand(monkeypatch):
    """There is no choice (and no cost model) any more: the inline sweep runs
    on the session's backend whatever the demand (stats-only or float) and
    whichever side of the deleted 3 500-element crossover the snapshot falls
    on — a ``backend="python"`` session grows its trees on the python
    reference."""
    ran = []
    for name in BACKENDS:
        cls = type(get_backend(name))
        monkeypatch.setattr(
            cls,
            "sweep",
            lambda self, csr, sources, brandes=(), _sweep=cls.sweep: (
                ran.append(self.name) or _sweep(self, csr, sources, brandes)
            ),
        )
    small = CDupGraph(build_symmetric_condensed(seed=3, num_real=12, num_virtual=4, max_size=4))
    big = CDupGraph(build_symmetric_condensed(seed=3, num_real=300, num_virtual=200, max_size=12))
    assert small.snapshot().n + small.snapshot().num_edges < 3500
    assert big.snapshot().n + big.snapshot().num_edges > 3500
    for graph in (small, big):
        for name in BACKENDS:
            for plan in (
                _session(1, name).wrap(graph).analyze().closeness().diameter(samples=3),
                _session(1, name).wrap(graph).analyze().closeness().betweenness(sample_size=4),
            ):
                ran.clear()
                plan.run()
                assert ran == [name]


def test_compile_plan_is_pure_and_keys_are_structural(family):
    graph = family["C-DUP"]
    handle = _session(1, "python").wrap(graph)
    csr = handle.snapshot()
    plan = handle.analyze().closeness().diameter(samples=4, seed=1).closeness()
    compiled = compile_plan(plan._requests, csr)
    assert len(compiled.bindings) == 3
    assert len(compiled.algo_nodes) == 2  # duplicate closeness folded
    assert compiled.bindings[0] is compiled.bindings[2]
    assert compiled.sweep is not None
    assert compiled.sweep.covers_all
    assert len(compiled.sweep.sources) == csr.n
    assert not compiled.wants_pool
    assert compiled.algo_nodes[0].key == "algo:closeness"
    assert compiled.algo_nodes[1].key == "algo:diameter(samples=4, seed=1)"
    # placement marks modes and nothing else
    keys = [node.key for node in compiled.algo_nodes + compiled.derive_nodes]
    place_on_pool(compiled)
    assert compiled.wants_pool and compiled.sweep.node.mode == "chunks"
    assert [node.key for node in compiled.algo_nodes + compiled.derive_nodes] == keys
