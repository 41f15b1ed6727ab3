"""Tests for the session layer: GraphSession → GraphHandle → AnalysisPlan →
AnalysisReport.

Covers the lifecycle contracts the API redesign promises:

* a multi-algorithm plan performs exactly one snapshot build (asserted via
  the kernel's build counter and the store's outcome counters),
* snapshot reuse across consecutive ``analyze()`` runs is an in-process
  cache hit,
* a structural mutation (``add_edge``) invalidates the snapshot and the
  stale store file,
* plan results are bit-identical to the standalone free functions on both
  kernel backends, and
* bad plan arguments are :class:`~repro.exceptions.UsageError` messages.
"""

from __future__ import annotations

import pytest

from repro.algorithms import (
    average_clustering,
    betweenness_centrality,
    bfs_distances,
    closeness_centrality,
    connected_components,
    core_numbers,
    count_triangles,
    degrees,
    label_propagation,
    link_predictions,
    pagerank,
    approximate_diameter,
)
from repro.exceptions import UsageError
from repro.graph import ExpandedGraph, SnapshotStore
from repro.graph.backend import numpy_available
from repro.graph.kernel import CSRGraph
from repro.session import (
    PLAN_ALGORITHMS,
    AnalysisPlan,
    AnalysisReport,
    GraphHandle,
    GraphSession,
)
from repro.relational.database import Database
from repro.vertexcentric import run_pagerank
from tests.conftest import COAUTHOR_QUERY

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def make_db(name: str = "toy_dblp") -> Database:
    db = Database(name)
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("AuthorPub", [("aid", "int"), ("pid", "int")])
    db.insert("Author", [(i, f"author_{i}") for i in range(1, 9)])
    db.insert(
        "AuthorPub",
        [
            (1, 1), (2, 1), (3, 1), (4, 1),
            (1, 2), (4, 2), (5, 2),
            (5, 3), (6, 3),
            (7, 4), (8, 4),
        ],
    )
    return db


def make_triangle() -> ExpandedGraph:
    return ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])


@pytest.fixture
def session(tmp_path) -> GraphSession:
    return GraphSession(make_db(), snapshot_cache=str(tmp_path / "snaps"), backend="python")


class TestSessionConstruction:
    def test_bad_parallelism_is_usage_error(self):
        with pytest.raises(UsageError, match="parallelism must be at least 1"):
            GraphSession(make_db(), parallelism=0)

    def test_bad_backend_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown kernel backend"):
            GraphSession(make_db(), backend="fortran")

    def test_backend_resolved_eagerly(self):
        session = GraphSession(make_db(), backend="python")
        assert session.backend.name == "python"
        assert session.parallelism == 1
        assert session.store is None

    def test_store_configured(self, tmp_path):
        session = GraphSession(make_db(), snapshot_cache=str(tmp_path / "s"))
        assert session.store is not None
        assert session.store.directory.is_dir()

    def test_explain_delegates(self):
        session = GraphSession(make_db())
        assert "extraction plan" in session.explain(COAUTHOR_QUERY)

    @pytest.mark.parametrize(
        "construct, keyword, value",
        [
            (lambda tmp, **kw: GraphSession(make_db(), **kw), "shards", 2),
            (lambda tmp, **kw: GraphSession(make_db(), **kw), "memory_budget_mb", 64),
            (lambda tmp, **kw: SnapshotStore(tmp / "s", **kw), "shards", 2),
            (lambda tmp, **kw: SnapshotStore(tmp / "s", **kw), "shard_threshold_bytes", 4096),
            (lambda tmp, **kw: run_pagerank(make_triangle(), **kw), "pool", None),
        ],
        ids=[
            "session-shards",
            "session-memory_budget_mb",
            "store-shards",
            "store-shard_threshold_bytes",
            "run_pagerank-pool",
        ],
    )
    def test_out_of_core_keywords_are_gone(self, tmp_path, construct, keyword, value):
        """Sessions, stores and the vertex-centric wrappers take no shard
        geometry: the keyword is refused, not silently ignored."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            construct(tmp_path, **{keyword: value})


class TestGraphHandles:
    def test_extraction_memoised_per_query_and_representation(self, session):
        first = session.graph(COAUTHOR_QUERY)
        assert session.graph(COAUTHOR_QUERY) is first
        other = session.graph(COAUTHOR_QUERY, representation="exp")
        assert other is not first
        assert other.representation == "exp"

    def test_handle_carries_extraction_result(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        assert handle.extraction is not None
        assert handle.extraction.report.real_nodes == handle.graph.num_vertices()

    def test_wrap_adopts_prebuilt_graph(self, session):
        graph = session.graph(COAUTHOR_QUERY).graph
        wrapped = session.wrap(graph)
        assert isinstance(wrapped, GraphHandle)
        report = wrapped.analyze().degree().run()
        assert report["degree"].values == degrees(graph)

    def test_analyze_returns_fresh_plans(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        assert isinstance(handle.analyze(), AnalysisPlan)
        assert handle.analyze() is not handle.analyze()


class TestSnapshotLifecycle:
    def test_multi_algorithm_plan_builds_snapshot_exactly_once(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        before = CSRGraph.build_count
        report = handle.analyze().pagerank().components().bfs(source=1).triangles().run()
        assert isinstance(report, AnalysisReport)
        assert len(report) == 4
        assert CSRGraph.build_count - before == 1
        assert report.snapshot_builds == 1
        assert handle.builds == 1
        assert report.provenance.snapshot_source == "heap"
        # first store interaction for this key is a miss (file written)
        assert session.store.counters == {"source-hit": 0, "hit": 0, "stale": 0, "miss": 1, "base+delta": 0, "compact": 0}

    def test_consecutive_analyze_runs_reuse_snapshot(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        handle.analyze().degree().run()
        before = CSRGraph.build_count
        report = handle.analyze().pagerank().kcore().run()
        assert CSRGraph.build_count == before  # zero new builds
        assert report.snapshot_builds == 0
        assert report.provenance.snapshot_source == "cache-hit"
        assert handle.builds == 1

    def test_mutation_invalidates_snapshot_and_store_file(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        first = handle.analyze().components().run()
        handle.graph.add_edge(1, 7)
        handle.graph.add_edge(7, 1)
        second = handle.analyze().components().run()
        assert second.provenance.snapshot_source == "heap"
        assert handle.builds == 2
        # the store saw the stale file and rewrote it
        assert session.store.counters["stale"] == 1
        # 1 and 7 are now in the same component
        labels = second["components"].values
        assert labels[1] == labels[7]
        assert first["components"].values[1] != first["components"].values[7]

    def test_new_session_mmaps_persisted_snapshot(self, tmp_path):
        cache = str(tmp_path / "snaps")
        first = GraphSession(make_db(), snapshot_cache=cache, backend="python")
        first.graph(COAUTHOR_QUERY).analyze().degree().run()
        # same database contents, fresh session: the store file matches the
        # rebuilt snapshot's hash, so the handle adopts the mmap-backed load
        second = GraphSession(make_db(), snapshot_cache=cache, backend="python")
        handle = second.graph(COAUTHOR_QUERY)
        report = handle.analyze().degree().run()
        assert report.provenance.snapshot_source == "mmap"
        assert second.store.counters["hit"] == 1
        assert report["degree"].values == degrees(handle.graph)

    def test_persist_returns_store_path(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        path = handle.persist()
        assert path is not None and path.endswith(".csr")
        storeless = GraphSession(make_db())
        assert storeless.graph(COAUTHOR_QUERY).persist() is None


class TestPlanResultsMatchFreeFunctions:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("representation", ["cdup", "exp", "bitmap"])
    def test_bit_identical_results_across_backends(self, backend, representation):
        session = GraphSession(make_db(), backend=backend)
        handle = session.graph(COAUTHOR_QUERY, representation=representation)
        graph = handle.graph
        report = (
            handle.analyze()
            .degree()
            .pagerank(damping=0.9)
            .components()
            .bfs(source=1)
            .kcore()
            .triangles()
            .clustering()
            .label_propagation(seed=3)
            .closeness()
            .betweenness(sample_size=5, seed=2)
            .diameter(samples=4, seed=1)
            .link_predictions(k=5)
            .run()
        )
        # the free functions resolve the same backend through the session's
        # process default; pin it explicitly for the comparison
        from repro.graph.backend import set_default_backend

        previous = set_default_backend(backend)
        try:
            assert report["degree"].values == degrees(graph)
            assert report["pagerank"].values == pagerank(graph, damping=0.9)
            assert report["components"].values == connected_components(graph)
            assert report["bfs"].values == bfs_distances(graph, 1)
            assert report["kcore"].values == core_numbers(graph)
            assert report["triangles"].values == count_triangles(graph)
            assert report["clustering"].values == average_clustering(graph)
            assert report["label_propagation"].values == label_propagation(graph, seed=3)
            assert report["closeness"].values == closeness_centrality(graph)
            assert report["betweenness"].values == betweenness_centrality(
                graph, sample_size=5, seed=2
            )
            assert report["diameter"].values == approximate_diameter(graph, samples=4, seed=1)
            assert report["link_predictions"].values == link_predictions(graph, k=5)
        finally:
            set_default_backend(previous)

    def test_plan_covers_every_registry_algorithm(self):
        assert sorted(PLAN_ALGORITHMS) == sorted(
            [
                "degree",
                "pagerank",
                "components",
                "bfs",
                "kcore",
                "triangles",
                "clustering",
                "label_propagation",
                "closeness",
                "betweenness",
                "diameter",
                "link_predictions",
            ]
        )


class TestPlanValidation:
    def test_unknown_algorithm_is_usage_error(self, session):
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="unknown algorithm 'sssp'"):
            plan.add("sssp")

    def test_bfs_without_source_is_usage_error(self, session):
        """An omitted source is reported by add()'s missing-argument check
        (which runs strictly *before* any validator — validators must never
        see the REQUIRED sentinel); an explicit ``source=None`` reaches the
        bfs validator and gets its message."""
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="bfs: missing required argument\\(s\\) source"):
            plan.bfs()
        with pytest.raises(UsageError, match="bfs: missing required argument\\(s\\) source"):
            plan.add("bfs")
        with pytest.raises(UsageError, match="bfs requires a source vertex"):
            plan.bfs(source=None)

    def test_missing_required_check_runs_before_validators(self, session, monkeypatch):
        """Regression for the PR-4 ordering: a validator touching a required
        parameter must see a real value or not run at all, never the
        REQUIRED sentinel (which crashed with a sentinel-typed traceback)."""
        from repro.session import plan as plan_module

        spec = plan_module.PLAN_ALGORITHMS["bfs"]

        def sentinel_sensitive(params):
            assert params["source"] is not plan_module.REQUIRED
            if params["source"] is None:
                raise UsageError("bfs requires a source vertex (pass source=...)")

        monkeypatch.setitem(
            plan_module.PLAN_ALGORITHMS,
            "bfs",
            plan_module.PlanAlgorithm(
                "bfs",
                defaults=spec.defaults,
                kernel=spec.kernel,
                validate=sentinel_sensitive,
            ),
        )
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="missing required argument"):
            plan.add("bfs")  # the validator's assert must not have fired

    def test_bad_pagerank_damping_is_usage_error(self, session):
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="damping must be in"):
            plan.pagerank(damping=1.5)

    def test_unexpected_argument_is_usage_error(self, session):
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="unexpected argument"):
            plan.add("degree", damping=0.9)

    def test_bad_link_prediction_score_is_usage_error(self, session):
        plan = session.graph(COAUTHOR_QUERY).analyze()
        with pytest.raises(UsageError, match="unknown score"):
            plan.link_predictions(score="cosine")

    def test_empty_plan_run_is_usage_error(self, session):
        with pytest.raises(UsageError, match="plan is empty"):
            session.graph(COAUTHOR_QUERY).analyze().run()


class TestParallelPlans:
    @pytest.fixture
    def parallel_session(self, tmp_path):
        return GraphSession(
            make_db(),
            snapshot_cache=str(tmp_path / "snaps"),
            backend="python",
            parallelism=2,
        )

    def test_in_memory_plans_never_leave_their_kernels(self, parallel_session):
        """No algorithm changes engine because the session has workers: the
        former superstep four (pagerank included, exactly), depth-limited
        bfs, custom-convergence pagerank and a kernel-only algorithm all run
        their kernels inline, without a note or a pool."""
        handle = parallel_session.graph(COAUTHOR_QUERY)
        graph = handle.graph
        report = (
            handle.analyze().degree().pagerank().components().bfs(source=1)
            .bfs(source=1, max_depth=1).pagerank(max_iterations=3, tolerance=0.0).kcore().run()
        )
        for result in report:
            assert (result.engine, result.scheduled, result.notes) == ("kernel", "inline", ())
            assert result.provenance.parallelism == 1
        assert report.pool_starts == 0
        assert report["degree"].values == degrees(graph)
        assert report["pagerank"].values == pagerank(graph)
        assert report["components"].values == connected_components(graph)
        assert report["bfs"].values == bfs_distances(graph, 1)
        assert report["bfs#2"].values == bfs_distances(graph, 1, max_depth=1)
        assert report["pagerank#2"].values == pagerank(graph, max_iterations=3, tolerance=0.0)
        assert report["kcore"].values == core_numbers(graph)

    def test_single_fallback_request_runs_inline_without_pool_or_persist(
        self, tmp_path, monkeypatch
    ):
        """A directed graph + one symmetric-only request: one concurrent
        task cannot beat running it inline, so run() must not fork a pool or
        ask for the worker snapshot file.  (The store still caches the
        snapshot at build time — that is its job — but no scheduler
        persistence round happens on top.)"""
        db = Database("bipartite")
        db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
        db.create_table("Taught", [("iid", "int"), ("cid", "int")])
        db.create_table("Took", [("sid", "int"), ("cid", "int")])
        db.insert("Person", [(1, "i1"), (2, "s1"), (3, "s2")])
        db.insert("Taught", [(1, 10)])
        db.insert("Took", [(2, 10), (3, 10)])
        query = """
        Nodes(ID, Name) :- Person(ID, Name).
        Edges(ID1, ID2) :- Taught(ID1, CourseID), Took(ID2, CourseID).
        """
        session = GraphSession(
            db, snapshot_cache=str(tmp_path / "snaps"), parallelism=2, backend="python"
        )
        handle = session.graph(query)
        calls = []
        original = handle.persist
        monkeypatch.setattr(
            handle, "persist", lambda: calls.append(1) or original()
        )
        report = handle.analyze().components().run()
        result = report["components"]
        assert result.engine == "kernel"
        assert result.scheduled == "inline"
        assert report.pool_starts == 0
        assert calls == []

    def test_non_symmetric_graph_runs_the_same_kernels_without_a_note(self, tmp_path):
        """A directed graph is nothing special at parallelism 2: several
        kernel requests run inline, fork nothing, and say nothing."""
        db = Database("bipartite")
        db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
        db.create_table("Taught", [("iid", "int"), ("cid", "int")])
        db.create_table("Took", [("sid", "int"), ("cid", "int")])
        db.insert("Person", [(1, "i1"), (2, "s1"), (3, "s2"), (4, "s3")])
        db.insert("Taught", [(1, 10), (1, 11)])
        db.insert("Took", [(2, 10), (3, 10), (3, 11), (4, 11)])
        query = """
        Nodes(ID, Name) :- Person(ID, Name).
        Edges(ID1, ID2) :- Taught(ID1, CourseID), Took(ID2, CourseID).
        """
        session = GraphSession(
            db, snapshot_cache=str(tmp_path / "snaps"), parallelism=2, backend="python"
        )
        handle = session.graph(query)
        report = handle.analyze().components().pagerank().run()
        for result in report:
            assert (result.engine, result.scheduled, result.notes) == ("kernel", "inline", ())
        assert report.pool_starts == 0
        assert report["components"].values == connected_components(handle.graph)
        assert report["pagerank"].values == pagerank(handle.graph)


class TestReport:
    def test_duplicate_requests_get_unique_labels(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        report = handle.analyze().bfs(source=1).bfs(source=5).run()
        assert report.labels() == ["bfs", "bfs#2"]
        assert report["bfs"].values == bfs_distances(handle.graph, 1)
        assert report["bfs#2"].values == bfs_distances(handle.graph, 5)

    def test_report_addressing_and_membership(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        report = handle.analyze().degree().triangles().run()
        assert report[0].algorithm == "degree"
        assert "triangles" in report
        assert "pagerank" not in report
        with pytest.raises(KeyError):
            report["pagerank"]

    def test_result_metadata(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        report = handle.analyze().pagerank(damping=0.7).run()
        result = report["pagerank"]
        assert result.params["damping"] == 0.7
        assert result.seconds >= 0.0
        assert result.engine == "kernel"
        assert result.provenance.representation == "cdup"
        assert result.provenance.backend == "python"

    def test_summary_mentions_context(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        report = handle.analyze().degree().components().run()
        summary = report.summary()
        assert "cdup" in summary
        assert "backend=python" in summary
        assert "degree" in summary and "components" in summary


class TestGiraphEscapeHatch:
    def test_handle_runs_giraph_program(self, session):
        handle = session.graph(COAUTHOR_QUERY)
        result = handle.giraph("degree")
        assert result.values == degrees(handle.graph)
