"""Tests for out-of-core plan execution over sharded snapshots.

The contract under test (PR 8's tentpole):

* a ``shards=N`` / ``memory_budget_mb=MB`` session runs every plan
  algorithm to values **bit-identical** to the ordinary monolithic session —
  superstep algorithms on a pool whose workers each mmap one shard's
  segment file, whole-graph algorithms inline on the coordinator with an
  explanatory note;
* no worker process ever maps more snapshot bytes than its own shard
  (``worker_memory`` in the report is the evidence, and under a memory
  budget every entry stays ≤ the budget);
* provenance says what happened: ``snapshot_source="shard-mmap"`` and a
  shard count on out-of-core superstep results, plain handle provenance on
  inline fallbacks;
* the warm pool keys on shard geometry, and the service codec round-trips
  the new provenance fields;
* graphs whose snapshot payload is several times a per-worker memory budget
  still complete, under the budget and bit-identical (the former Figure 19).
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import generate_condensed
from repro.exceptions import UsageError
from repro.graph.backend import numpy_available
from repro.graph.cdup import CDupGraph
from repro.graph.shard_store import snapshot_payload_bytes
from repro.relational.database import Database
from repro.session import GraphSession
from repro.session.plan import SUPERSTEP_PAGERANK_ITERATIONS
from repro.vertexcentric import run_pagerank

from tests.conftest import build_parity_family

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: every registry algorithm (bfs gets its source per graph)
ALL_ALGORITHM_REQUESTS = [
    ("degree", {}),
    ("pagerank", {}),
    ("components", {}),
    ("bfs", {}),
    ("kcore", {}),
    ("triangles", {}),
    ("clustering", {}),
    ("label_propagation", {"seed": 3}),
    ("closeness", {}),
    ("betweenness", {"sample_size": 7, "seed": 2}),
    ("diameter", {"samples": 5, "seed": 1}),
    ("link_predictions", {"k": 5}),
]

#: algorithms the superstep engine serves — the ones that actually run
#: out-of-core; everything else falls back inline with a note
SUPERSTEP_ALGORITHMS = {"degree", "pagerank", "components", "bfs"}


@pytest.fixture(scope="module")
def graph():
    return build_parity_family(
        "symmetric", seed=53, num_real=40, num_virtual=14, max_size=7
    )["C-DUP"]


def _session(backend, **kwargs):
    return GraphSession(Database("ooc"), backend=backend, **kwargs)


def _superstep_pagerank(graph, backend, workers):
    """The vertex-centric engine run directly: what an out-of-core plan's
    default-parameter pagerank must equal bit for bit."""
    values, _ = run_pagerank(
        graph, iterations=SUPERSTEP_PAGERANK_ITERATIONS, parallelism=workers, backend=backend
    )
    return values


def _full_plan(handle, source):
    plan = handle.analyze()
    for name, params in ALL_ALGORITHM_REQUESTS:
        if name == "bfs":
            params = dict(params, source=source)
        plan.add(name, **params)
    return plan


# --------------------------------------------------------------------------- #
# bit-identity: out-of-core == monolithic, every algorithm x backend
# --------------------------------------------------------------------------- #
# (ids keep the "compiler-" prefix these cases have always had)
@pytest.mark.parametrize("backend", BACKENDS, ids=[f"compiler-{name}" for name in BACKENDS])
class TestOutOfCoreDeterminism:
    def test_sharded_plan_bit_identical_to_monolithic(self, graph, backend):
        source = sorted(graph.get_vertices(), key=repr)[0]
        with _session(backend, parallelism=3) as reference_session:
            reference = _full_plan(reference_session.wrap(graph), source).run()
        with _session(backend, shards=3) as session:
            assert session.out_of_core
            report = _full_plan(session.wrap(graph), source).run()
        assert report.labels() == reference.labels()
        expected = {serial.label: serial.values for serial in reference}
        # a monolithic plan runs the kernels whatever its parallelism; only
        # the fixed-iteration superstep pagerank differs from its kernel, so
        # that label compares like for like against the engine itself
        expected["pagerank"] = _superstep_pagerank(graph, backend, workers=3)
        for sharded in report:
            assert sharded.values == expected[sharded.label], sharded.label

    def test_superstep_results_carry_shard_provenance(self, graph, backend):
        source = sorted(graph.get_vertices(), key=repr)[0]
        with _session(backend, shards=3) as session:
            report = _full_plan(session.wrap(graph), source).run()
        for result in report:
            if result.engine == "superstep":
                assert result.provenance.snapshot_source == "shard-mmap"
                assert result.provenance.shards == 3
                assert result.provenance.parallelism == 3
            else:
                # whole-graph algorithms (and sweep-covered bfs)
                # run on the coordinator, never on shard-local workers
                assert result.engine == "kernel"
                assert result.scheduled == "inline"
                assert result.provenance.shards == 0
        # the three algorithms never covered by a sweep always go out-of-core
        for name in ("degree", "pagerank", "components"):
            assert report[name].engine == "superstep"
        # inline fallbacks say why they did not run out-of-core
        assert any(
            "out-of-core" in note or "whole-graph" in note
            for result in report
            if result.engine == "kernel"
            for note in result.notes
        )
        assert report.provenance.snapshot_source == "shard-mmap"
        assert report.provenance.shards == 3
        assert report.pool_starts == 1


# --------------------------------------------------------------------------- #
# the memory ceiling: workers map one shard each, never the whole graph
# --------------------------------------------------------------------------- #
class TestWorkerMemory:
    def test_worker_memory_reports_per_shard_mappings(self, graph):
        with _session(None, shards=3) as session:
            handle = session.wrap(graph)
            report = handle.analyze().add("pagerank").run()
            whole = snapshot_payload_bytes(handle.snapshot())
        assert len(report.worker_memory) == 3
        mapped_total = 0
        for entry in report.worker_memory:
            assert entry["hi"] > entry["lo"]
            assert 0 < entry["mapped_bytes"] < whole
            assert entry["peak_rss_bytes"] > 0
            mapped_total += entry["mapped_bytes"]
        # segment files carry headers, so the sum exceeds the raw payload by
        # a bounded amount — but no single worker ever approaches the whole
        assert mapped_total < whole + 3 * 1024

    def test_memory_budget_caps_every_worker(self, graph):
        budget_mb = 0.002  # ~2 KiB: far below this graph's payload
        with _session(None, memory_budget_mb=budget_mb) as session:
            handle = session.wrap(graph)
            assert snapshot_payload_bytes(handle.snapshot()) > budget_mb * 1024 * 1024
            report = handle.analyze().add("pagerank").add("components").run()
        assert report.provenance.shards >= 2
        assert len(report.worker_memory) == report.provenance.shards
        for entry in report.worker_memory:
            assert entry["mapped_bytes"] <= int(budget_mb * 1024 * 1024)

    def test_monolithic_runs_report_no_worker_memory(self, graph):
        with _session(None, parallelism=2) as session:
            report = session.wrap(graph).analyze().add("pagerank").run()
        assert report.worker_memory == []
        assert report.provenance.shards == 0


# --------------------------------------------------------------------------- #
# Figure 19: the snapshot payload is several times the per-worker budget
# --------------------------------------------------------------------------- #
#: the payload must be at least this many times the budget — the check is
#: pointless if the graph would have fit in one worker anyway
MIN_OVERSUBSCRIPTION = 3


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "num_real, num_virtual",
    [
        pytest.param(1200, 600, id="synthetic_mid"),
        pytest.param(4000, 2000, id="synthetic_large", marks=pytest.mark.slow),
    ],
)
def test_out_of_core_under_budget_bit_identical(num_real, num_virtual, backend):
    graph = CDupGraph(generate_condensed(num_real, num_virtual, mean_size=6, std_size=2, seed=11))
    source = sorted(graph.get_vertices(), key=repr)[0]

    def run(**session_kwargs):
        with _session(backend, **session_kwargs) as session:
            plan = session.wrap(graph).analyze()
            return plan.pagerank().components().bfs(source=source).degree().run()

    payload = snapshot_payload_bytes(graph.snapshot())
    budget_bytes = payload // (MIN_OVERSUBSCRIPTION + 1)
    assert payload >= MIN_OVERSUBSCRIPTION * budget_bytes
    sharded = run(memory_budget_mb=budget_bytes / (1024 * 1024))

    # the memory ceiling, asserted from the workers' own memory_stats
    shards = sharded.provenance.shards
    assert shards >= MIN_OVERSUBSCRIPTION
    assert sharded.provenance.snapshot_source == "shard-mmap"
    assert len(sharded.worker_memory) == shards
    for entry in sharded.worker_memory:
        assert 0 < entry["mapped_bytes"] <= budget_bytes, entry
        assert entry["peak_rss_bytes"] > 0

    # bit-identity: the same superstep program on an unsharded pool of the
    # same size for pagerank, and the plain serial kernels (which a
    # monolithic plan runs at any parallelism) for the integer-exact rest
    assert sharded["pagerank"].values == _superstep_pagerank(graph, backend, workers=shards)
    monolithic = run(parallelism=shards)
    serial = run()
    for label in ("components", "bfs", "degree"):
        assert sharded[label].values == monolithic[label].values, label
        assert sharded[label].values == serial[label].values, label


# --------------------------------------------------------------------------- #
# session surface
# --------------------------------------------------------------------------- #
class TestSessionConfiguration:
    def test_shards_and_budget_mutually_exclusive(self):
        with pytest.raises(UsageError):
            GraphSession(Database("x"), shards=2, memory_budget_mb=8)

    def test_invalid_values_rejected(self):
        with pytest.raises(UsageError):
            GraphSession(Database("x"), shards=0)
        with pytest.raises(UsageError):
            GraphSession(Database("x"), memory_budget_mb=0)

    def test_plain_session_is_not_out_of_core(self):
        session = GraphSession(Database("x"))
        assert not session.out_of_core
        session.close()

    def test_threshold_session_stays_monolithic_under_budget(self, graph):
        # a generous budget: the snapshot fits, so no sharding happens and
        # plans run exactly like a plain store-backed session
        with _session(None, memory_budget_mb=64) as session:
            report = session.wrap(graph).analyze().add("pagerank").run()
        assert report.provenance.shards == 0
        assert report.worker_memory == []

    def test_sharded_store_key_separates_warm_pool(self, graph, tmp_path):
        # same snapshot, different geometry: the warm pool must re-fork, not
        # serve workers holding the old shard mappings
        with GraphSession(
            Database("warm"), snapshot_cache=str(tmp_path / "c"), shards=2, warm_pool=True
        ) as session:
            handle = session.wrap(graph)
            handle.analyze().add("pagerank").run()
            forks_before = session.pool_manager.counters["forks"]
            handle.analyze().add("components").run()
            assert session.pool_manager.counters["forks"] == forks_before  # reuse
            assert session.pool_manager.counters["reuses"] >= 1


# --------------------------------------------------------------------------- #
# service codec: the new provenance fields survive the wire
# --------------------------------------------------------------------------- #
class TestCodecRoundTrip:
    def test_report_with_shard_provenance_round_trips(self, graph):
        from repro.service.codec import decode_report, dumps, encode_report, loads

        with _session(None, shards=3) as session:
            report = session.wrap(graph).analyze().add("pagerank").add("triangles").run()
        decoded = decode_report(loads(dumps(encode_report(report))))
        assert decoded.provenance == report.provenance
        assert decoded.provenance.shards == 3
        assert decoded.worker_memory == report.worker_memory
        for original, copy in zip(report, decoded):
            assert copy.values == original.values
            assert copy.provenance == original.provenance

    def test_service_forwards_worker_memory_and_shard_provenance(self, graph):
        # the service reassembles its own report (cache clones + fresh
        # results); the out-of-core evidence must survive that reassembly
        from repro.service import GraphService

        with _session(None, shards=3) as session:
            service = GraphService(session, session.wrap(graph))
            report = service.analyze({"algorithm": "pagerank"})
            assert report.provenance.shards == 3
            assert report.provenance.snapshot_source == "shard-mmap"
            assert len(report.worker_memory) == 3
            for entry in report.worker_memory:
                assert entry["mapped_bytes"] > 0
            # a pure cache-hit response executed nothing out-of-core
            hit = service.analyze({"algorithm": "pagerank"})
            assert hit.cache["hits"] == 1
            assert hit.worker_memory == []

    def test_pre_sharding_payloads_still_decode(self):
        from repro.service.codec import decode_provenance, decode_report

        legacy = {
            "representation": "cdup",
            "backend": "python",
            "snapshot_source": "heap",
            "parallelism": 1,
        }
        assert decode_provenance(legacy).shards == 0
        report = decode_report(
            {
                "results": [],
                "provenance": None,
                "total_seconds": 0.0,
                "snapshot_builds": 0,
                "pool_starts": 0,
                "snapshot_writes": 0,
                "nodes_computed": 0,
                "nodes_reused": 0,
                "cache": None,
            }
        )
        assert report.worker_memory == []
