"""Plan-level scheduling tests: one pool + one snapshot file per plan, and
scheduled-vs-sequential bit-identity.

The scheduler's determinism contract: a ``parallelism > 1`` plan compiles
the DAG it compiles at ``parallelism == 1`` and returns, for every request
— pagerank included — exactly the value it returns there.  Only the fused
sweep (split by source; per-source products re-summed in each request's own
source order) and the ``triangle-counts`` pass (split by vertex range;
integer vectors add exactly) run on workers; everything else runs inline.

The resource contract is counter-asserted: a scheduled plan forks **at most
one** worker pool and writes **at most one** snapshot file — and none of
either when it holds no sliced node.
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

#: every registry algorithm, with parameters that exercise the float kernels,
#: both sliced nodes' consumers and the full-source betweenness stream
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
                assert parallel.engine in ("kernel", "chunks")
                assert parallel.values == serial.values, (
                    f"{parallel.label} x{parallelism} on {backend}/{representation} "
                    "diverged from the sequential plan"
                )
        for two, four in zip(scheduled_reports[2], scheduled_reports[4]):
            assert two.values == four.values, two.label

    def test_directed_graph_scheduled_plans_bit_identical(
        self, families, backend, representation
    ):
        """A directed graph is placed like a symmetric one (no program has a
        symmetry requirement to fall back from) and must match the
        sequential plan exactly."""
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
    def test_storeless_sliced_plan_writes_one_tempfile_and_one_pool(self, families):
        """Both sliced nodes — the fused sweep and the triangle pass — and
        all five of their consumers ride one pool over one tempfile copy of
        the snapshot."""
        graph = families["symmetric"]["EXP"]
        source = sorted(graph.get_vertices(), key=repr)[0]
        handle = _session(4, "python").wrap(graph)
        plan = (
            handle.analyze().closeness().diameter(samples=3).bfs(source=source)
            .triangles().clustering()
        )
        pools_before = ParallelSuperstepExecutor.started_total
        writes_before = snapshot_store.SAVE_COUNT
        report = plan.run()
        assert ParallelSuperstepExecutor.started_total - pools_before == 1
        assert snapshot_store.SAVE_COUNT - writes_before == 1
        assert report.pool_starts == 1
        assert report.snapshot_writes == 1
        assert all(r.engine == "chunks" and r.scheduled == "pool" for r in report)

    def test_free_functions_pay_one_pool_and_one_tempfile_per_call(self, families):
        """The vertex-centric engine stays available as ``run_*``: three
        back-to-back free ``run_*(parallelism=4)`` calls fork three pools and
        write three tempfile snapshot copies.  The same three algorithms as a
        ``parallelism=4`` plan run their kernels inline — no pool, no file —
        to the same values."""
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
        assert (report.pool_starts, report.snapshot_writes) == (0, 0)
        assert all(r.engine == "kernel" and r.scheduled == "inline" for r in report)
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
        assert [(r.engine, r.scheduled) for r in scheduled] == [
            ("kernel", "inline"), ("kernel", "inline"), ("chunks", "pool")
        ]  # fmt: skip

    def test_mixed_plan_reuses_one_pool_across_every_mode(self, families):
        """Sliced sweep, sliced triangle pass and inline kernels in one plan:
        one pool, and only the sliced nodes' consumers say ``pool``."""
        graph = families["symmetric"]["EXP"]
        report = (
            _session(2, "python").wrap(graph)
            .analyze().components().triangles().kcore().clustering().closeness().run()
        )
        assert report.pool_starts == 1
        assert report.snapshot_writes == 1  # store-less: one tempfile
        placed = {r.label: (r.engine, r.scheduled, r.provenance.parallelism) for r in report}
        assert placed == {
            "components": ("kernel", "inline", 1),
            "triangles": ("chunks", "pool", 2),
            "kcore": ("kernel", "inline", 1),
            "clustering": ("chunks", "pool", 2),
            "closeness": ("chunks", "pool", 2),
        }

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

    def test_first_plan_on_a_store_pickles_the_codec_once(self, tmp_path, monkeypatch):
        """The wrapped key's content hash and the save of the missing file
        share one pickle of the codec; an equal graph's later plan, an mmap
        hit, pickles it once for its key and saves nothing."""
        from repro.graph import ExpandedGraph

        pickled: list[int] = []
        encode = snapshot_store.encode_codec
        monkeypatch.setattr(
            snapshot_store, "encode_codec", lambda ids: pickled.append(len(ids)) or encode(ids)
        )
        cache = str(tmp_path / "snaps")

        def first_plan():
            pickled.clear()
            graph = ExpandedGraph.from_edges([(i, i + 1) for i in range(1000)])
            handle = GraphSession(Database("wrapdb"), snapshot_cache=cache).wrap(graph)
            handle.analyze().degree().run()
            assert pickled == [1001]
            return handle

        assert first_plan().snapshot_source == "heap"  # the key's file is written
        assert first_plan().snapshot_source == "mmap"  # an equal graph: it is there

    def test_explicit_key_still_wins(self, tmp_path):
        session = GraphSession(Database("wrapdb"), snapshot_cache=str(tmp_path / "s"))
        graph = build_parity_family("symmetric", seed=31, num_real=10, num_virtual=4)["EXP"]
        handle = session.wrap(graph, key="pinned")
        assert handle.store_key == "pinned"


# --------------------------------------------------------------------------- #
# caller mistakes keep their type (they never cross a pipe)
# --------------------------------------------------------------------------- #
class TestCallerMistakes:
    def test_empty_plan_is_still_a_usage_error(self, families):
        graph = families["symmetric"]["EXP"]
        with pytest.raises(UsageError, match="plan is empty"):
            _session(2, "python").wrap(graph).analyze().run()

    def test_caller_mistakes_keep_their_type_on_pool_dispatch(self, families):
        """A bad BFS source in a plan that does use the pool surfaces as the
        RepresentationError (one-line message) a parallelism=1 plan raises —
        found while compiling (the bfs rides the sliced sweep) or by the
        inline kernel (``max_depth``), never inside a worker."""
        from repro.exceptions import RepresentationError

        graph = families["symmetric"]["EXP"]
        for max_depth in (None, 2):
            plan = (
                _session(2, "python").wrap(graph)
                .analyze()
                .closeness()
                .bfs(source="NO_SUCH_VERTEX", max_depth=max_depth)
                .triangles()
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
