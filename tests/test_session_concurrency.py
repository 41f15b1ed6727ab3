"""Regression tests for the session-layer concurrency fixes.

The graph service runs whole analysis plans on concurrent request threads
of one process, which exposed three latent bugs in the session layer:

* ``AnalysisReport.__contains__`` leaked ``IndexError`` for out-of-range
  integer keys (``5 in report`` raised instead of answering False),
* the report's ``pool_starts`` / ``snapshot_writes`` counters were deltas
  of *process-global* instrumentation, so two plans running concurrently
  each appeared to fork the other's pool and write the other's snapshot
  (breaking the "at most one per plan" contract exactly when it matters),
  and the store's last fetch outcome was a shared-state read-back with the
  same interleaving hazard (``SnapshotStore.fetch`` now returns it), and
* ``GraphSession.wrap()`` minted a fresh handle per call, resetting build
  provenance and per-dataset sharing on every re-wrap.

A fourth, found later: a warm pool whose worker died was handed out again
on every lease — raw ``OSError``s (HTTP 500s) until the content hash moved.
A fifth: a plan read its snapshot's provenance (source, builds, delta
count) back from the handle after ``snapshot()`` returned, so another
thread's ``snapshot()`` in between rewrote the plan's report.

Each test here fails on the pre-fix behaviour: the counter test inserts a
barrier into ``ParallelSuperstepExecutor.start`` so both plans are provably
in flight before either forks — with global deltas at least one report
*must* then count the other plan's fork and write.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.exceptions import VertexCentricError
from repro.graph import ExpandedGraph
from repro.graph.snapshot_store import SnapshotStore
from repro.session import GraphSession
from repro.session.report import AnalysisReport, AnalysisResult, Provenance
from repro.vertexcentric.parallel import ParallelSuperstepExecutor
from tests.conftest import COAUTHOR_QUERY
from tests.test_session import make_db


# --------------------------------------------------------------------------- #
# AnalysisReport.__contains__ (the IndexError leak)
# --------------------------------------------------------------------------- #
def _report_with(count: int) -> AnalysisReport:
    provenance = Provenance("cdup", "python", "heap", 1)
    return AnalysisReport(
        results=[
            AnalysisResult(
                algorithm=f"algo{i}",
                label=f"algo{i}",
                params={},
                values=i,
                seconds=0.0,
                engine="kernel",
                provenance=provenance,
            )
            for i in range(count)
        ],
        provenance=provenance,
    )


class TestReportContains:
    def test_out_of_range_int_is_false_not_indexerror(self):
        report = _report_with(2)
        assert 5 not in report  # raised IndexError before the fix
        assert (5 in report) is False

    def test_in_range_ints_including_negative(self):
        report = _report_with(2)
        assert 0 in report
        assert 1 in report
        assert -1 in report
        assert -2 in report

    def test_out_of_range_negative_int_is_false(self):
        report = _report_with(2)
        assert -3 not in report

    def test_empty_report(self):
        report = _report_with(0)
        assert 0 not in report
        assert -1 not in report
        assert "anything" not in report

    def test_label_and_algorithm_membership_still_work(self):
        report = _report_with(2)
        assert "algo0" in report
        assert "nope" not in report


# --------------------------------------------------------------------------- #
# GraphSession.wrap memoisation
# --------------------------------------------------------------------------- #
class TestWrapMemoisation:
    def test_same_graph_same_handle(self):
        session = GraphSession(make_db(), backend="python")
        graph = session.graph(COAUTHOR_QUERY).graph
        first = session.wrap(graph)
        second = session.wrap(graph)
        assert first is second

    def test_build_provenance_survives_rewrap(self):
        session = GraphSession(make_db(), backend="python")
        graph = session.graph(COAUTHOR_QUERY).graph
        handle = session.wrap(graph)
        handle.snapshot()
        assert handle.builds == 1
        again = session.wrap(graph)
        assert again.builds == 1  # was 0 before the fix (fresh handle)

    def test_distinct_keys_get_distinct_handles(self):
        session = GraphSession(make_db(), backend="python")
        graph = session.graph(COAUTHOR_QUERY).graph
        assert session.wrap(graph, key="a") is not session.wrap(graph, key="b")
        assert session.wrap(graph, key="a") is session.wrap(graph, key="a")

    def test_distinct_graphs_get_distinct_handles(self):
        session = GraphSession(make_db(), backend="python")
        graph_a = session.graph(COAUTHOR_QUERY).graph
        graph_b = session.graph(COAUTHOR_QUERY, representation="exp").graph
        assert session.wrap(graph_a) is not session.wrap(graph_b)


# --------------------------------------------------------------------------- #
# SnapshotStore.fetch: per-call outcomes, lock-guarded totals
# --------------------------------------------------------------------------- #
class TestStoreFetchOutcomes:
    def test_fetch_returns_the_outcome(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        session = GraphSession(make_db(), backend="python")
        graph = session.graph(COAUTHOR_QUERY).graph
        _, outcome = store.fetch(graph, "k")
        assert outcome == "miss"
        _, outcome = store.fetch(graph, "k")
        assert outcome == "hit"
        graph.add_edge(7, 1)
        _, outcome = store.fetch(graph, "k")
        assert outcome == "stale"
        assert store.counters == {"source-hit": 0, "hit": 1, "stale": 1, "miss": 1, "base+delta": 0, "compact": 0}

    def test_concurrent_fetches_see_their_own_outcome(self, tmp_path):
        """Interleaved fetches on one store: every thread's *returned*
        outcome is correct (a read-back of shared store state would observe
        whichever thread recorded last), and the shared totals stay exact."""
        store = SnapshotStore(tmp_path / "snaps")
        workers = 4
        sessions = [GraphSession(make_db(), backend="python") for _ in range(workers)]
        graphs = [s.graph(COAUTHOR_QUERY).graph for s in sessions]
        for graph in graphs:
            graph.snapshot()  # pre-build so the timed region is store-only

        outcomes: dict[tuple[int, int], str] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(workers, timeout=30)
        lock = threading.Lock()

        def worker(index: int) -> None:
            try:
                for round_number in range(2):
                    barrier.wait()
                    _, outcome = store.fetch(graphs[index], f"key-{index}")
                    with lock:
                        outcomes[(index, round_number)] = outcome
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for index in range(workers):
            assert outcomes[(index, 0)] == "miss"
            assert outcomes[(index, 1)] == "hit"
        assert store.counters == {"source-hit": 0, "hit": workers, "stale": 0, "miss": workers, "base+delta": 0, "compact": 0}


# --------------------------------------------------------------------------- #
# a plan's snapshot provenance is its own snapshot call's
# --------------------------------------------------------------------------- #
class TestPlanSnapshotProvenance:
    def test_a_snapshot_on_another_thread_does_not_rewrite_the_report(self, monkeypatch):
        """Thread B calls ``handle.snapshot()`` right after thread A's plan
        got its snapshot.  A built that snapshot, so its report must say
        ``heap`` with one build — not B's ``cache-hit``, as it did while the
        plan read the handle's shared provenance back after the call."""
        session = GraphSession(make_db(), backend="python")
        handle = session.wrap(ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)]))
        real_snapshot = handle.snapshot
        others: list[threading.Thread] = []

        def snapshot_then_another_thread():
            csr = real_snapshot()
            other = threading.Thread(target=real_snapshot)
            others.append(other)
            other.start()
            # before the fix B finishes here; with the provenance read under
            # the handle's lock, B waits for the plan to have read it
            other.join(timeout=0.5)
            return csr

        monkeypatch.setattr(handle, "snapshot", snapshot_then_another_thread)
        report = handle.analyze().degree().run()
        for other in others:
            other.join(timeout=30)
        monkeypatch.undo()
        assert len(others) == 1 and not others[0].is_alive()

        assert report.provenance.snapshot_source == "heap"
        assert report.snapshot_builds == 1
        assert handle.snapshot_source == "cache-hit"  # B's call, after A's read
        fresh = session.wrap(ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)]))
        assert report.nodes_computed == fresh.analyze().degree().run().nodes_computed


# --------------------------------------------------------------------------- #
# concurrent plans: per-plan pool_starts / snapshot_writes
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestConcurrentPlanCounters:
    def test_each_plan_counts_only_its_own_forks_and_writes(self, tmp_path, monkeypatch):
        """Two plans on two threads, both provably in flight before either
        forks (barrier inside ``start``): each report must still say
        ``pool_starts == 1`` and ``snapshot_writes == 1``.  With the old
        process-global deltas, at least one report necessarily counted the
        other plan's fork and write (== 2)."""
        plans = 2
        barrier = threading.Barrier(plans, timeout=60)
        fork_lock = threading.Lock()  # overlap proven; the forks themselves
        original_start = ParallelSuperstepExecutor.start  # stay serialised

        def synced_start(self):
            barrier.wait()
            with fork_lock:
                return original_start(self)

        monkeypatch.setattr(ParallelSuperstepExecutor, "start", synced_start)

        reports: dict[int, object] = {}
        errors: list[Exception] = []

        def run_plan(index: int) -> None:
            try:
                session = GraphSession(
                    make_db(f"db{index}"),
                    snapshot_cache=str(tmp_path / f"snaps{index}"),
                    backend="python",
                    parallelism=2,
                )
                handle = session.graph(COAUTHOR_QUERY)
                plan = handle.analyze().closeness().triangles()  # both sliced nodes
                reports[index] = plan.run()
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [threading.Thread(target=run_plan, args=(i,)) for i in range(plans)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert set(reports) == set(range(plans))
        for index, report in reports.items():
            assert report.pool_starts == 1, (index, report.pool_starts)
            assert report.snapshot_writes == 1, (index, report.snapshot_writes)
            assert len(report.results) == 2


# --------------------------------------------------------------------------- #
# warm pool: a dead worker fails one plan cleanly, then the pool is replaced
# --------------------------------------------------------------------------- #
class TestWarmPoolWorkerDeath:
    def test_killed_worker_fails_one_plan_then_the_pool_is_replaced(self, tmp_path):
        """What ``repro serve --parallel 2 --snapshot-cache DIR`` builds."""
        with GraphSession(
            make_db("deadpool"),
            snapshot_cache=str(tmp_path / "snaps"),
            backend="python",
            parallelism=2,
            warm_pool=True,
        ) as session:
            handle = session.graph(COAUTHOR_QUERY)
            manager = session.pool_manager

            def run():
                return handle.analyze().triangles().kcore().clustering().run()

            before = run()
            assert manager.counters == {"forks": 1, "reuses": 0, "leases": 1}
            victim = manager._pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()

            with pytest.raises(VertexCentricError, match="parallel worker 0 died"):
                run()
            # the failed plan returned its lease: a plan on another thread is
            # not blocked, gets a re-forked pool, and answers as before the kill
            after = []
            thread = threading.Thread(target=lambda: after.append(run()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and after
            assert manager.counters == {"forks": 2, "reuses": 1, "leases": 3}
            assert [(r.label, r.engine, r.values) for r in after[0]] == [
                (r.label, r.engine, r.values) for r in before
            ]
            assert after[0].pool_starts == 1
