"""Plan-compiler tests: CSE, shared sweeps, provenance, routing, and
bit-identity with the per-request kernel runners.

The compiler's contract (:mod:`repro.session.compiler`) is that lowering a
plan into a deduplicated node DAG changes *scheduling*, never *values*:

* the reference matrix — every registry algorithm on symmetric and directed
  graphs, both kernel backends, parallelism 1 / 2 / 4 — asserts each result
  equals ``PLAN_ALGORITHMS[name].kernel(csr, backend, params)`` exactly,
  floats included (``==``, no tolerance);
* how each request was routed (engine, scheduling, notes, pool starts,
  snapshot writes, shard provenance) is pinned by a literal table;
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

from repro.exceptions import RepresentationError, UsageError
from repro.graph import snapshot_store
from repro.graph.backend import get_backend, numpy_available
from repro.graph import CDupGraph
from repro.relational.database import Database
from repro.session import AnalysisPlan, GraphSession, NodeProvenance
from repro.session.plan import PLAN_ALGORITHMS
from repro.session.compiler import (
    BRANDES_FACTOR,
    CompilerCounters,
    CostModel,
    compile_plan,
)
from repro.vertexcentric.parallel import ParallelSuperstepExecutor

from tests.conftest import build_parity_family, build_symmetric_condensed
from tests.test_plan_scheduling import ALL_ALGORITHM_REQUESTS

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
    points ``tests/test_api_compat.py`` pins the free functions to.  Returns
    how many results were skipped as the one documented approximation
    (default-parameter pagerank on the fixed-iteration superstep engine)."""
    approximate = 0
    for result in report:
        if result.engine == "superstep" and result.notes:
            assert result.algorithm == "pagerank"
            approximate += 1
            continue
        want = PLAN_ALGORITHMS[result.algorithm].kernel(csr, get_backend(backend), result.params)
        assert result.values == want, f"{result.label} diverged from its kernel runner"
    return approximate


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_plan_matches_per_request_kernel_runners_exactly(families, kind, backend, parallelism):
    graph = families[kind]["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    handle = _session(parallelism, backend).wrap(graph)
    report = _full_plan(handle, source).run()
    approximate = _assert_matches_kernel_runners(report, handle.snapshot(), backend)
    assert approximate == (1 if kind == "symmetric" and parallelism > 1 else 0)
    assert all(result.nodes for result in report)


# --------------------------------------------------------------------------- #
# routing: a literal table (captured before the per-request executor was
# deleted, when both executors were asserted to agree on it) — label ->
# (engine, scheduled, provenance.parallelism, one substring per note)
# --------------------------------------------------------------------------- #
P = "the session's parallelism"
NO_PROGRAM = "has no superstep program; running serial kernel"
NEEDS_SYMMETRIC = "superstep program requires a symmetric graph; running serial kernel"
CUSTOM_CONVERGENCE = "pagerank with custom max_iterations/tolerance runs on the serial kernel"
FIXED_ITERATIONS = "pagerank via the superstep engine (20 fixed iterations)"
STRICT_SUBSET = "not chunk-parallel eligible (requires sampling a strict subset of sources)"
WHOLE_GRAPH = "needs whole-graph adjacency, which out-of-core workers do not map"
OWN_SHARD = "out-of-core workers map only their own shard; running inline on the coordinator"

ROUTING_POOLED = {  # parallelism 2 and 4: pool_starts == snapshot_writes == 1
    "symmetric": {
        "degree": ("superstep", "pool", P, ()),
        "pagerank": ("superstep", "pool", P, (FIXED_ITERATIONS,)),
        "pagerank#2": ("kernel", "pool", 1, (CUSTOM_CONVERGENCE,)),
        "components": ("superstep", "pool", P, ()),
        "bfs": ("superstep", "pool", P, ()),
        "kcore": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "triangles": ("chunks", "pool", P, ()),
        "clustering": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "label_propagation": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "closeness": ("chunks", "pool", P, ()),
        "betweenness": ("chunks", "pool", P, ()),
        "betweenness#2": ("kernel", "pool", 1, (STRICT_SUBSET,)),
        "diameter": ("chunks", "pool", P, ()),
        "link_predictions": ("kernel", "pool", 1, (NO_PROGRAM,)),
    },
    "directed": {
        "degree": ("superstep", "pool", P, ()),
        "pagerank": ("kernel", "pool", 1, (NEEDS_SYMMETRIC,)),
        "pagerank#2": ("kernel", "pool", 1, (CUSTOM_CONVERGENCE,)),
        "components": ("kernel", "pool", 1, (NEEDS_SYMMETRIC,)),
        "bfs": ("kernel", "pool", 1, (NEEDS_SYMMETRIC,)),
        "kcore": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "triangles": ("chunks", "pool", P, ()),
        "clustering": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "label_propagation": ("kernel", "pool", 1, (NO_PROGRAM,)),
        "closeness": ("chunks", "pool", P, ()),
        "betweenness": ("chunks", "pool", P, ()),
        "betweenness#2": ("kernel", "pool", 1, (STRICT_SUBSET,)),
        "diameter": ("chunks", "pool", P, ()),
        "link_predictions": ("kernel", "pool", 1, (NO_PROGRAM,)),
    },
}
#: parallelism == 1, either graph kind: pool_starts == snapshot_writes == 0
ROUTING_INLINE = {label: ("kernel", "inline", 1, ()) for label in ROUTING_POOLED["symmetric"]}
#: ``shards=3`` sessions: only superstep programs leave the coordinator (3
#: workers, one shard each, ``snapshot_source == "shard-mmap"``); the sweep
#: (closeness, both betweenness, diameter — and bfs riding along) runs inline
#: without a note; pool_starts == snapshot_writes == 1
ROUTING_OUT_OF_CORE = {
    "symmetric": {
        "degree": ("superstep", "pool", 3, ()),
        "pagerank": ("superstep", "pool", 3, (FIXED_ITERATIONS,)),
        "pagerank#2": ("kernel", "inline", 1, (CUSTOM_CONVERGENCE, OWN_SHARD)),
        "components": ("superstep", "pool", 3, ()),
        "bfs": ("kernel", "inline", 1, ()),
        "kcore": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "triangles": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "clustering": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "label_propagation": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "closeness": ("kernel", "inline", 1, ()),
        "betweenness": ("kernel", "inline", 1, ()),
        "betweenness#2": ("kernel", "inline", 1, ()),
        "diameter": ("kernel", "inline", 1, ()),
        "link_predictions": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
    },
    "directed": {
        "degree": ("superstep", "pool", 3, ()),
        "pagerank": ("kernel", "inline", 1, (NEEDS_SYMMETRIC, OWN_SHARD)),
        "pagerank#2": ("kernel", "inline", 1, (CUSTOM_CONVERGENCE, OWN_SHARD)),
        "components": ("kernel", "inline", 1, (NEEDS_SYMMETRIC, OWN_SHARD)),
        "bfs": ("kernel", "inline", 1, ()),
        "kcore": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "triangles": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "clustering": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "label_propagation": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
        "closeness": ("kernel", "inline", 1, ()),
        "betweenness": ("kernel", "inline", 1, ()),
        "betweenness#2": ("kernel", "inline", 1, ()),
        "diameter": ("kernel", "inline", 1, ()),
        "link_predictions": ("kernel", "inline", 1, (WHOLE_GRAPH,)),
    },
}


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
    _assert_routed(report, ROUTING_POOLED[kind] if pooled else ROUTING_INLINE, parallelism)
    assert (report.pool_starts, report.snapshot_writes) == ((1, 1) if pooled else (0, 0))
    assert all(result.provenance.shards == 0 for result in report)
    assert report.provenance.parallelism == parallelism


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["symmetric", "directed"])
def test_out_of_core_routing_matches_the_literal_table(families, kind, backend):
    graph = families[kind]["C-DUP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    with GraphSession(Database("compiler"), backend=backend, shards=3) as session:
        report = _full_plan(session.wrap(graph), source).run()
    _assert_routed(report, ROUTING_OUT_OF_CORE[kind], None)
    for result in report:
        sharded = result.engine == "superstep"
        assert result.provenance.shards == (3 if sharded else 0), result.label
        assert (result.provenance.snapshot_source == "shard-mmap") == sharded, result.label
    assert (report.pool_starts, report.snapshot_writes) == (1, 1)
    assert report.provenance.snapshot_source == "shard-mmap"
    assert (report.provenance.shards, report.provenance.parallelism) == (3, 1)
    assert len(report.worker_memory) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_parallel_matches_compiled_serial(family, backend):
    """Compiled at parallelism 4 == compiled at parallelism 1 (the pool sweep's
    partition-order merge is the serial sweep's order)."""
    graph = family["EXP"]
    source = sorted(graph.get_vertices(), key=repr)[0]
    serial = _full_plan(_session(1, backend).wrap(graph), source).run()
    parallel = _full_plan(_session(4, backend).wrap(graph), source).run()
    for got, want in zip(parallel, serial):
        if got.engine == "superstep" and got.notes:
            continue  # default-parameter pagerank: documented approximation
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
    """Unsampled betweenness joins the sweep at parallelism 1 (streamed
    running total in serial source order) but keeps its serial-kernel
    fallback and note on pools."""
    graph = family["C-DUP"]
    serial = (
        _session(1, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .betweenness()
        .run()
    )
    assert any(node.kind == "sweep" for node in serial["betweenness"].nodes)
    parallel = (
        _session(2, "python")
        .wrap(graph)
        .analyze()
        .closeness()
        .betweenness()
        .run()
    )
    assert not any(node.kind == "sweep" for node in parallel["betweenness"].nodes)
    assert parallel["betweenness"].engine == "kernel"
    assert any("strict subset" in note for note in parallel["betweenness"].notes)
    assert serial["betweenness"].values == parallel["betweenness"].values


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
    assert _assert_matches_kernel_runners(report, handle.snapshot(), backend) == 0


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
    assert _assert_matches_kernel_runners(report, handle.snapshot(), "python") == 0
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
# cost model
# --------------------------------------------------------------------------- #
def test_cost_model_weighted_sweep_partitions_cover_sources_in_order():
    cost = CostModel(n=100, m=400, backend_name="python")
    sources = list(range(40))
    deltas = set(range(10))  # first quarter carries Brandes weight
    parts = cost.partition_sweep_sources(sources, deltas, False, 4)
    assert [s for chunk in parts for s in chunk] == sources
    assert len(parts) == 4
    factor = BRANDES_FACTOR["python"]
    weights = {s: (factor if s in deltas else 1.0) for s in sources}
    shares = [sum(weights[s] for s in chunk) for chunk in parts]
    target = sum(weights.values()) / 4
    # weighted balance: no worker carries more than a share plus one source
    assert all(share <= target + factor for share in shares)


def test_cost_model_inline_backend_choice_respects_float_demand(monkeypatch):
    """There is no choice any more: the inline sweep runs on the session's
    backend whatever the demand (stats-only or float) and whichever side of
    the deleted 3 500-element crossover the snapshot falls on — a
    ``backend="python"`` session grows its trees on the python reference."""
    assert not hasattr(CostModel, "inline_sweep_backend")
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
    compiled = compile_plan(plan._requests, csr, get_backend("python"), 1)
    assert len(compiled.bindings) == 3
    assert len(compiled.algo_nodes) == 2  # duplicate closeness folded
    assert compiled.bindings[0] is compiled.bindings[2]
    assert compiled.sweep is not None
    assert compiled.sweep.covers_all
    assert len(compiled.sweep.sources) == csr.n
    assert not compiled.wants_pool
    assert compiled.algo_nodes[0].key == "algo:closeness"
    assert compiled.algo_nodes[1].key == "algo:diameter(samples=4, seed=1)"
