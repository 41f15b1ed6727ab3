"""Plan-level scheduling tests: one pool + one snapshot file per plan, and
scheduled-vs-sequential bit-identity.

The scheduler's determinism contract extends the superstep executor's: a
``parallelism > 1`` plan must return, for every request, exactly the value
the same plan returns at ``parallelism == 1`` — superstep programs through
the canonicalised merges, chunk-parallel direct kernels through
partition-order partial merges (flat left-to-right float re-summation in
global source order), and concurrently dispatched serial kernels because
they run the same backend kernel over the mmap-loaded copy of the same
snapshot.  The single documented exception is default-parameter pagerank,
which routes to the fixed-iteration superstep engine and says so in a note.

The resource contract is counter-asserted: a scheduled plan forks **exactly
one** worker pool and writes **at most one** snapshot file, where the PR-4
behaviour forked one pool and (store-less) wrote one tempfile *per
superstep request*.
"""

from __future__ import annotations

import pytest

from repro.exceptions import UsageError
from repro.graph import snapshot_store
from repro.graph.backend import numpy_available
from repro.relational.database import Database
from repro.session import GraphSession
from repro.vertexcentric.parallel import ParallelSuperstepExecutor
from repro.vertexcentric.programs import run_connected_components, run_degree, run_sssp

from tests.conftest import build_parity_family

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
PARALLELISMS = (2, 4)

#: every registry algorithm, with parameters that exercise the float kernels
#: and all four scheduling modes (superstep, chunks, concurrent task, plus a
#: parameter-fallback task via the custom-convergence pagerank)
ALL_ALGORITHM_REQUESTS = [
    ("degree", {}),
    ("pagerank", {}),
    ("pagerank", {"max_iterations": 7, "tolerance": 0.0}),
    ("components", {}),
    ("bfs", {}),  # source filled in per graph
    ("kcore", {}),
    ("triangles", {}),
    ("clustering", {}),
    ("label_propagation", {"seed": 3}),
    ("closeness", {}),
    ("betweenness", {"sample_size": 7, "seed": 2}),
    ("betweenness", {"normalized": False}),
    ("diameter", {"samples": 5, "seed": 1}),
    ("link_predictions", {"k": 5}),
]


@pytest.fixture(scope="module")
def families():
    return {
        "symmetric": build_parity_family(
            "symmetric", seed=31, num_real=40, num_virtual=14, max_size=7
        ),
        "directed": build_parity_family(
            "directed", seed=31, num_real=40, num_virtual=14, max_size=7
        ),
    }


def _session(parallelism, backend, cache=None):
    return GraphSession(
        Database("sched"),
        backend=backend,
        parallelism=parallelism,
        snapshot_cache=cache,
    )


def _full_plan(handle, source):
    plan = handle.analyze()
    for name, params in ALL_ALGORITHM_REQUESTS:
        if name == "bfs":
            params = dict(params, source=source)
        plan.add(name, **params)
    return plan


# --------------------------------------------------------------------------- #
# determinism: scheduled == sequential, all registry algorithms x backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("representation", ["EXP", "C-DUP"])
class TestSchedulerDeterminism:
    def test_scheduled_plans_bit_identical_to_sequential(
        self, families, backend, representation
    ):
        graph = families["symmetric"][representation]
        source = sorted(graph.get_vertices(), key=repr)[0]
        sequential = _full_plan(_session(1, backend).wrap(graph), source).run()
        assert all(result.scheduled == "inline" for result in sequential)
        scheduled_reports = {}
        for parallelism in PARALLELISMS:
            scheduled = _full_plan(
                _session(parallelism, backend).wrap(graph), source
            ).run()
            scheduled_reports[parallelism] = scheduled
            assert scheduled.pool_starts == 1
            assert scheduled.snapshot_writes <= 1
            for serial, parallel in zip(sequential, scheduled):
                assert parallel.label == serial.label
                if parallel.engine == "superstep" and parallel.notes:
                    # default-parameter pagerank: fixed-iteration superstep
                    # engine, approximate by documented design
                    assert parallel.algorithm == "pagerank"
                    assert parallel.values.keys() == serial.values.keys()
                    assert all(
                        abs(parallel.values[v] - serial.values[v]) < 1e-4
                        for v in serial.values
                    )
                    continue
                assert parallel.values == serial.values, (
                    f"{parallel.label} x{parallelism} on {backend}/{representation} "
                    "diverged from the sequential plan"
                )
        # the superstep engine itself is deterministic across worker counts:
        # every result (pagerank included) is bit-identical between x2 and x4
        for two, four in zip(scheduled_reports[2], scheduled_reports[4]):
            assert two.values == four.values, two.label

    def test_directed_graph_scheduled_plans_bit_identical(
        self, families, backend, representation
    ):
        """On a directed graph every symmetric-requiring program falls back,
        so the whole batch runs serial kernels — concurrently on workers —
        and must still match the sequential plan exactly."""
        graph = families["directed"][representation]
        source = sorted(graph.get_vertices(), key=repr)[0]
        sequential = _full_plan(_session(1, backend).wrap(graph), source).run()
        scheduled = _full_plan(_session(2, backend).wrap(graph), source).run()
        for serial, parallel in zip(sequential, scheduled):
            assert parallel.values == serial.values, parallel.label
        assert scheduled.pool_starts == 1


# --------------------------------------------------------------------------- #
# resource contract: one pool, one snapshot file per plan (tentpole
# regression — fails on the PR-4 per-request behaviour)
# --------------------------------------------------------------------------- #
class TestOnePoolOneSnapshotPerPlan:
    def test_storeless_superstep_plan_writes_one_tempfile_and_one_pool(self, families):
        """PR-4: a store-less plan with N superstep requests wrote N tempfile
        snapshot copies and forked N pools.  The scheduler must write exactly
        one and fork exactly one."""
        graph = families["symmetric"]["EXP"]
        source = sorted(graph.get_vertices(), key=repr)[0]
        handle = _session(4, "python").wrap(graph)
        plan = handle.analyze().degree().components().bfs(source=source)
        pools_before = ParallelSuperstepExecutor.started_total
        writes_before = snapshot_store.SAVE_COUNT
        report = plan.run()
        assert ParallelSuperstepExecutor.started_total - pools_before == 1
        assert snapshot_store.SAVE_COUNT - writes_before == 1
        assert report.pool_starts == 1
        assert report.snapshot_writes == 1
        assert sum(1 for r in report if r.engine == "superstep") == 3

    def test_free_functions_pay_one_pool_and_one_tempfile_per_call(self, families):
        """What the plan amortises: the same three programs as back-to-back
        free ``run_*(parallelism=4)`` calls fork three pools and write three
        tempfile snapshot copies (fig16's counter row, ``1 vs 3``)."""
        graph = families["symmetric"]["EXP"]
        source = sorted(graph.get_vertices(), key=repr)[0]
        pools_before = ParallelSuperstepExecutor.started_total
        writes_before = snapshot_store.SAVE_COUNT
        degree, _ = run_degree(graph, parallelism=4)
        components, _ = run_connected_components(graph, parallelism=4)
        distances, _ = run_sssp(graph, source, parallelism=4)
        assert ParallelSuperstepExecutor.started_total - pools_before == 3
        assert snapshot_store.SAVE_COUNT - writes_before == 3
        report = (
            _session(4, "python").wrap(graph)
            .analyze().degree().components().bfs(source=source).run()
        )
        assert (report.pool_starts, report.snapshot_writes) == (1, 1)
        assert report["degree"].values == degree
        assert set(report["components"].values) == set(components)
        assert report["bfs"].values == {v: d for v, d in distances.items() if d is not None}

    def test_three_algorithm_parallelism_4_plan_acceptance(self, families, tmp_path):
        """The acceptance shape: a 3-algorithm parallelism=4 plan forks
        exactly one pool, persists the snapshot at most once, and its results
        are bit-identical to parallelism=1."""
        graph = families["symmetric"]["C-DUP"]
        source = sorted(graph.get_vertices(), key=repr)[0]
        cache = str(tmp_path / "snaps")

        sequential = (
            _session(1, "python", cache).wrap(graph)
            .analyze().components().bfs(source=source).triangles().run()
        )
        pools_before = ParallelSuperstepExecutor.started_total
        scheduled = (
            _session(4, "python", cache).wrap(graph)
            .analyze().components().bfs(source=source).triangles().run()
        )
        assert ParallelSuperstepExecutor.started_total - pools_before == 1
        assert scheduled.pool_starts == 1
        assert scheduled.snapshot_writes <= 1
        for serial, parallel in zip(sequential, scheduled):
            assert parallel.values == serial.values, parallel.label
        assert scheduled["components"].engine == "superstep"
        assert scheduled["bfs"].engine == "superstep"
        assert scheduled["triangles"].engine == "chunks"
        assert all(result.scheduled == "pool" for result in scheduled)

    def test_mixed_plan_reuses_one_pool_across_every_mode(self, families):
        """Supersteps, chunks and concurrent tasks all ride the same pool."""
        graph = families["symmetric"]["EXP"]
        report = (
            _session(2, "python").wrap(graph)
            .analyze().components().triangles().kcore().clustering().run()
        )
        assert report.pool_starts == 1
        assert report.snapshot_writes == 1  # store-less: one tempfile
        assert report["components"].engine == "superstep"
        assert report["triangles"].engine == "chunks"
        assert report["kcore"].engine == "kernel"
        assert report["kcore"].scheduled == "pool"
        assert report["clustering"].scheduled == "pool"

    def test_parallelism_1_plan_never_forks_or_writes(self, families):
        graph = families["symmetric"]["EXP"]
        report = _session(1, "python").wrap(graph).analyze().degree().triangles().run()
        assert report.pool_starts == 0
        assert report.snapshot_writes == 0
        assert all(result.scheduled == "inline" for result in report)


# --------------------------------------------------------------------------- #
# provenance fields
# --------------------------------------------------------------------------- #
class TestScheduledProvenance:
    def test_chunk_results_carry_pool_parallelism_and_no_note(self, families):
        graph = families["symmetric"]["EXP"]
        report = (
            _session(2, "python").wrap(graph)
            .analyze().triangles().closeness().diameter(samples=4).run()
        )
        for label in ("triangles", "closeness", "diameter"):
            result = report[label]
            assert result.engine == "chunks"
            assert result.scheduled == "pool"
            assert result.provenance.parallelism == 2
            assert result.notes == ()

    def test_unsampled_betweenness_stays_on_the_serial_kernel(self, families):
        """Full betweenness ships one contribution per vertex — the chunk
        path is reserved for sampled runs; unsampled requests run the serial
        kernel (concurrently when the pool exists) with the fallback note."""
        graph = families["symmetric"]["EXP"]
        n = graph.num_vertices()
        report = (
            _session(2, "python").wrap(graph)
            .analyze().betweenness().betweenness(sample_size=6)
            .betweenness(sample_size=n + 5).run()
        )
        full, sampled = report["betweenness"], report["betweenness#2"]
        oversampled = report["betweenness#3"]
        assert full.engine == "kernel"
        assert any("serial kernel" in note for note in full.notes)
        assert sampled.engine == "chunks"
        assert sampled.notes == ()
        # sample_size >= n touches every source: per-source shipping would be
        # unbounded, so it must stay on the serial kernel like unsampled runs
        assert oversampled.engine == "kernel"
        assert any("strict subset" in note for note in oversampled.notes)
        assert oversampled.values == full.values  # all sources either way

    def test_summary_mentions_scheduling(self, families):
        graph = families["symmetric"]["EXP"]
        report = _session(2, "python").wrap(graph).analyze().triangles().kcore().run()
        summary = report.summary()
        assert "engine=chunks" in summary
        assert "scheduled=pool" in summary


# --------------------------------------------------------------------------- #
# wrap() store keys (bugfix regression)
# --------------------------------------------------------------------------- #
class TestWrappedStoreKeys:
    def test_equal_graph_in_second_session_gets_mmap_hit(self, tmp_path):
        """PR-4 keyed wrapped graphs by id(graph), so a second process or
        session could never hit the cache and every run leaked a new .csr
        file.  The key is now representation + content hash of the first
        snapshot: stable across sessions, one file per distinct content."""
        cache = str(tmp_path / "snaps")
        build = lambda: build_parity_family(
            "symmetric", seed=31, num_real=40, num_virtual=14, max_size=7
        )["EXP"]

        first = GraphSession(Database("wrapdb"), snapshot_cache=cache)
        handle = first.wrap(build())
        handle.snapshot()
        assert handle.snapshot_source in ("heap", "mmap")  # first write or adopt

        second = GraphSession(Database("wrapdb"), snapshot_cache=cache)
        twin = second.wrap(build())  # an *equal* graph, different object
        twin.snapshot()
        assert twin.snapshot_source == "mmap"
        assert twin.store_key == handle.store_key
        assert len(list((tmp_path / "snaps").glob("*.csr"))) == 1

    def test_explicit_key_still_wins(self, tmp_path):
        session = GraphSession(Database("wrapdb"), snapshot_cache=str(tmp_path / "s"))
        graph = build_parity_family("symmetric", seed=31, num_real=10, num_virtual=4)["EXP"]
        handle = session.wrap(graph, key="pinned")
        assert handle.store_key == "pinned"


# --------------------------------------------------------------------------- #
# executor task rounds
# --------------------------------------------------------------------------- #
class TestMapTasks:
    def test_more_tasks_than_workers_load_balance_in_order(self, families, tmp_path):
        """map_tasks hands queued tasks to workers as they free up and
        returns results in argument order."""
        from repro.session.scheduler import PlanWorker

        graph = families["symmetric"]["EXP"]
        csr = graph.snapshot()
        path = tmp_path / "sched.csr"
        csr.save(path)
        pool = ParallelSuperstepExecutor(2, csr.n, PlanWorker.factory(str(path), "python"))
        with pool:
            payloads = [("degree", {}), ("kcore", {}), ("triangles", {}), ("clustering", {})]
            results = pool.map_tasks("run_task", payloads)
        assert len(results) == 4
        from repro.algorithms import average_clustering, core_numbers, count_triangles, degrees

        assert all(status == "ok" for status, _, _ in results)
        assert results[0][2] == degrees(graph)
        assert results[1][2] == core_numbers(graph)
        assert results[2][2] == count_triangles(graph)
        assert results[3][2] == average_clustering(graph)
        assert all(seconds >= 0.0 for _, seconds, _ in results)

    def test_empty_plan_is_still_a_usage_error(self, families):
        graph = families["symmetric"]["EXP"]
        with pytest.raises(UsageError, match="plan is empty"):
            _session(2, "python").wrap(graph).analyze().run()

    def test_caller_mistakes_keep_their_type_on_pool_dispatch(self, families):
        """A bad BFS source discovered inside a worker must surface as the
        same RepresentationError (one-line message) the inline path raises,
        not a VertexCentricError wrapping a worker traceback."""
        from repro.exceptions import RepresentationError

        graph = families["symmetric"]["EXP"]
        plan = (
            _session(2, "python").wrap(graph)
            .analyze()
            .bfs(source="NO_SUCH_VERTEX", max_depth=2)  # max_depth -> task mode
            .kcore()
        )
        with pytest.raises(RepresentationError, match="is not in the graph"):
            plan.run()

    def test_bad_sampling_parameters_are_usage_errors(self, families):
        graph = families["symmetric"]["EXP"]
        plan = _session(1, "python").wrap(graph).analyze()
        with pytest.raises(UsageError, match="samples must be a positive integer"):
            plan.diameter(samples=0)
        with pytest.raises(UsageError, match="sample_size must be a positive integer"):
            plan.betweenness(sample_size=0)
        with pytest.raises(UsageError, match="sample_size must be a positive integer"):
            plan.betweenness(sample_size=-3)
        with pytest.raises(UsageError, match="sample_size must be a positive integer"):
            plan.betweenness(sample_size=True)  # bool is an int subclass
        with pytest.raises(UsageError, match="samples must be a positive integer"):
            plan.diameter(samples=True)
