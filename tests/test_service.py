"""Tests for the graph service core: JSON codec, result cache, GraphService.

Everything here runs HTTP-free against :class:`repro.service.GraphService`
and the codec/cache modules directly; the socket layer has its own suite
(``test_service_http.py``).  Covers the service contracts:

* the codec round-trips every result shape in ``PLAN_ALGORITHMS`` losslessly
  (vertex-ID key types, tuples, bit-identical floats),
* a repeated identical request is served from the result cache with **zero**
  kernel executions (snapshot build and compiler node counters unchanged)
  and bit-identical values, with provenance that says so,
* parameter canonicalization: explicitly passing an algorithm's defaults
  hits the same cache entry as passing nothing,
* a mutation moves the snapshot's content hash and invalidates the cache,
* admission control refuses over-limit uncached work with a 503-mapped
  :class:`~repro.exceptions.ServiceOverloadedError` while cache hits keep
  being served, and
* malformed requests are :class:`~repro.exceptions.UsageError` one-liners
  with the same messages a local plan produces.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ServiceOverloadedError, UsageError
from repro.graph.kernel import CSRGraph
from repro.service import (
    GraphService,
    ResultCache,
    canonical_params,
    decode_report,
    decode_value,
    encode_report,
    encode_value,
    result_key,
)
from repro.service.app import CACHE_NOTE
from repro.session import PLAN_ALGORITHMS, GraphSession
from repro.session.compiler import CompilerCounters
from repro.session.report import AnalysisResult, Provenance
from tests.conftest import COAUTHOR_QUERY
from tests.test_session import make_db


def make_service(tmp_path=None, **kwargs) -> GraphService:
    store = {"snapshot_cache": str(tmp_path / "snaps")} if tmp_path is not None else {}
    session = GraphSession(make_db(), backend="python", **store)
    handle = session.graph(COAUTHOR_QUERY)
    return GraphService(session, handle, **kwargs)


def full_catalogue_payload() -> dict:
    """One request per registry algorithm (required params filled in)."""
    entries = []
    for name in sorted(PLAN_ALGORITHMS):
        params = {"source": 1} if name == "bfs" else {}
        entries.append({"name": name, "params": params})
    return {"algorithms": entries}


# --------------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------------- #
class TestCodecValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            -7,
            0.1 + 0.2,  # not exactly 0.3: repr round-trip must preserve bits
            "text",
            [1, "two", 3.0],
            (1, 2, 0.5),
            {1: 0.25, "a": [1, 2], (3, 4): None},
            {"$": "not a tag, a key"},
            {"nested": {"deep": [(1,), {2: (3, [4])}]}},
        ],
    )
    def test_round_trip_through_json_text(self, value):
        encoded = encode_value(value)
        decoded = decode_value(json.loads(json.dumps(encoded)))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuple_vs_list_distinction_survives(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)

    def test_dict_key_types_survive(self):
        decoded = decode_value(json.loads(json.dumps(encode_value({1: "a", "1": "b"}))))
        assert decoded == {1: "a", "1": "b"}

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown codec tag"):
            decode_value({"$": "set", "items": []})


class TestCodecReports:
    def test_every_plan_algorithm_round_trips(self, tmp_path):
        """The acid test: run the full catalogue once, push the report
        through actual JSON text, and require bit-identical reconstruction
        of every result — values, params, provenance, nodes, notes."""
        service = make_service(tmp_path)
        report = service.analyze(full_catalogue_payload())
        assert len(report) == len(PLAN_ALGORITHMS)

        decoded = decode_report(json.loads(json.dumps(encode_report(report))))
        assert decoded.labels() == report.labels()
        assert decoded.cache == report.cache
        assert decoded.provenance == report.provenance
        assert decoded.total_seconds == report.total_seconds
        for original, restored in zip(report.results, decoded.results):
            assert restored.algorithm == original.algorithm
            assert restored.params == original.params
            # == would accept 1 for 1.0; the service promises bit-identity,
            # so compare reprs too (repr distinguishes type and float bits)
            assert restored.values == original.values
            assert repr(restored.values) == repr(original.values)
            assert restored.provenance == original.provenance
            assert restored.notes == original.notes
            assert restored.nodes == original.nodes
            assert restored.engine == original.engine
            assert restored.scheduled == original.scheduled

    def test_report_without_cache_dict_round_trips(self, tmp_path):
        session = GraphSession(make_db(), backend="python")
        report = session.graph(COAUTHOR_QUERY).analyze().degree().run()
        assert report.cache is None
        decoded = decode_report(json.loads(json.dumps(encode_report(report))))
        assert decoded.cache is None
        assert decoded["degree"].values == report["degree"].values

    def test_encoded_report_carries_no_shard_fields(self, tmp_path):
        session = GraphSession(make_db(), backend="python")
        payload = encode_report(session.graph(COAUTHOR_QUERY).analyze().degree().run())
        assert "worker_memory" not in payload
        assert "shards" not in payload["provenance"]
        assert all("shards" not in result["provenance"] for result in payload["results"])

    def test_payload_with_shard_fields_still_decodes(self, tmp_path):
        """A server from before the out-of-core tier went sends ``shards``
        in every provenance and a ``worker_memory`` list; a client ignores
        both."""
        session = GraphSession(make_db(), backend="python")
        report = session.graph(COAUTHOR_QUERY).analyze().degree().pagerank().run()
        payload = json.loads(json.dumps(encode_report(report)))
        payload["provenance"]["shards"] = 3
        for result in payload["results"]:
            result["provenance"]["shards"] = 3
        payload["worker_memory"] = [
            {"lo": 0, "hi": 4, "mapped_bytes": 512, "peak_rss_bytes": 4096}
        ]
        decoded = decode_report(payload)
        assert decoded.provenance == report.provenance
        for original, restored in zip(report, decoded):
            assert restored.provenance == original.provenance
            assert restored.values == original.values


# --------------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------------- #
def _result(tag: str) -> AnalysisResult:
    return AnalysisResult(
        algorithm=tag,
        label=tag,
        params={},
        values=tag,
        seconds=0.0,
        engine="kernel",
        provenance=Provenance("cdup", "python", "heap", 1),
    )


class TestResultCache:
    def test_get_put_and_counters(self):
        cache = ResultCache(capacity=4)
        key = result_key(b"\x01" * 32, "degree", {}, "python")
        assert cache.get(key) is None
        cache.put(key, _result("degree"))
        assert cache.get(key).values == "degree"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert len(cache) == 1

    def test_lru_eviction_prefers_recently_used(self):
        cache = ResultCache(capacity=2)
        keys = [result_key(bytes([i]) * 32, "degree", {}, "python") for i in range(3)]
        cache.put(keys[0], _result("a"))
        cache.put(keys[1], _result("b"))
        assert cache.get(keys[0]) is not None  # refresh 0: 1 becomes LRU
        cache.put(keys[2], _result("c"))
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.evictions == 1

    def test_invalidate_drops_only_that_hash(self):
        cache = ResultCache(capacity=8)
        old, new = b"\x0a" * 32, b"\x0b" * 32
        cache.put(result_key(old, "degree", {}, "python"), _result("old-d"))
        cache.put(result_key(old, "triangles", {}, "python"), _result("old-t"))
        cache.put(result_key(new, "degree", {}, "python"), _result("new-d"))
        assert cache.invalidate(old) == 2
        assert len(cache) == 1
        assert cache.get(result_key(new, "degree", {}, "python")).values == "new-d"
        assert cache.invalidations == 2

    def test_supersede_carries_in_place_and_get_repairs_on_read(self):
        cache = ResultCache(capacity=8)
        old, new = b"\x0a" * 32, b"\x0b" * 32
        for tag in ("keep-a", "drop", "keep-b"):
            cache.put(result_key(old, tag, {}, "python"), _result(tag))
        dropped = []
        cache.on_drop = dropped.append
        carried, evicted = cache.supersede(old, new, lambda r: r.algorithm.startswith("keep"))
        assert (carried, evicted) == (2, 1)
        assert [r.values for r in dropped] == ["drop"]
        assert len(cache) == 2
        assert cache.stats()["patched"] == 0  # nothing repaired by the write

        key_a, key_b = (result_key(new, tag, {}, "python") for tag in ("keep-a", "keep-b"))
        # a stale entry without a repair function: a miss that keeps the entry
        assert cache.get(key_a) is None and len(cache) == 2
        repaired = cache.get(key_a, lambda key, stale: _result(stale.values + "!"))
        assert repaired.values == "keep-a!"
        assert cache.get(key_a).values == "keep-a!"  # fresh now: no second repair
        assert cache.stats()["patched"] == 1

        # a refused repair is a miss that drops the entry (and tells on_drop)
        assert cache.get(key_b, lambda key, stale: None) is None
        assert len(cache) == 1 and [r.values for r in dropped] == ["drop", "keep-b"]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["patched"]) == (2, 2, 1)

    def test_on_drop_waits_for_the_last_entry_of_a_request(self):
        cache = ResultCache(capacity=2)
        dropped = []
        cache.on_drop = dropped.append
        cache.put(result_key(b"\x01" * 32, "pagerank", {}, "python"), _result("orphan"))
        cache.put(result_key(b"\x02" * 32, "pagerank", {}, "python"), _result("live"))
        cache.put(result_key(b"\x02" * 32, "degree", {}, "python"), _result("degree"))
        assert dropped == []  # the same request is still answered under 0x02
        cache.put(result_key(b"\x02" * 32, "kcore", {}, "python"), _result("kcore"))
        assert [r.values for r in dropped] == ["live"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_canonical_params_is_order_insensitive(self):
        assert canonical_params({"b": 2, "a": 1}) == canonical_params({"a": 1, "b": 2})
        assert canonical_params({"a": 1}) != canonical_params({"a": 2})

    def test_key_separates_algorithm_backend_and_hash(self):
        base = result_key(b"\x01" * 32, "degree", {}, "python")
        assert result_key(b"\x02" * 32, "degree", {}, "python") != base
        assert result_key(b"\x01" * 32, "kcore", {}, "python") != base
        assert result_key(b"\x01" * 32, "degree", {}, "numpy") != base


# --------------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------------- #
class TestServiceCacheHits:
    def test_repeat_request_is_bit_identical_with_zero_kernel_executions(
        self, tmp_path
    ):
        service = make_service(tmp_path)
        payload = full_catalogue_payload()
        first = service.analyze(payload)
        assert first.cache == {
            "hits": 0,
            "misses": len(PLAN_ALGORITHMS),
            "queue_depth": 0,
        }

        builds_before = CSRGraph.build_count
        compiled_before = CompilerCounters.plans_compiled
        computed_before = CompilerCounters.nodes_computed
        second = service.analyze(payload)
        # the cached batch never touches the kernel: no snapshot build, no
        # plan compiled, no DAG node executed
        assert CSRGraph.build_count == builds_before
        assert CompilerCounters.plans_compiled == compiled_before
        assert CompilerCounters.nodes_computed == computed_before

        assert second.cache == {
            "hits": len(PLAN_ALGORITHMS),
            "misses": 0,
            "queue_depth": 0,
        }
        assert second.snapshot_builds == 0
        assert second.pool_starts == 0
        assert second.snapshot_writes == 0
        for fresh, cached in zip(first.results, second.results):
            assert repr(cached.values) == repr(fresh.values)
            assert cached.provenance.snapshot_source == "result-cache"
            assert CACHE_NOTE in cached.notes

    def test_summary_carries_the_cache_counters(self, tmp_path):
        service = make_service(tmp_path)
        service.analyze({"algorithm": "degree"})
        summary = service.analyze({"algorithm": "degree"}).summary()
        assert "result cache: hits=1 misses=0 queue_depth=0" in summary

    def test_default_params_hit_the_explicit_default_entry(self, tmp_path):
        service = make_service(tmp_path)
        service.analyze({"algorithm": "pagerank"})
        report = service.analyze(
            {
                "algorithm": "pagerank",
                "params": {"damping": 0.85, "max_iterations": 50, "tolerance": 1.0e-9},
            }
        )
        assert report.cache["hits"] == 1 and report.cache["misses"] == 0

    def test_different_params_are_different_entries(self, tmp_path):
        service = make_service(tmp_path)
        first = service.analyze({"algorithm": "pagerank", "params": {"damping": 0.5}})
        report = service.analyze({"algorithm": "pagerank", "params": {"damping": 0.9}})
        assert report.cache["misses"] == 1
        assert report["pagerank"].values != first["pagerank"].values

    def test_mixed_batch_reports_hits_and_misses(self, tmp_path):
        service = make_service(tmp_path)
        service.analyze({"algorithm": "degree"})
        report = service.analyze(
            {"algorithms": [{"name": "degree"}, {"name": "triangles"}]}
        )
        assert report.cache["hits"] == 1 and report.cache["misses"] == 1
        assert report["degree"].provenance.snapshot_source == "result-cache"
        assert report["triangles"].provenance.snapshot_source != "result-cache"
        assert report.labels() == ["degree", "triangles"]

    def test_duplicate_requests_in_one_batch_get_distinct_labels(self, tmp_path):
        service = make_service(tmp_path)
        service.analyze({"algorithm": "degree"})
        report = service.analyze(
            {"algorithms": [{"name": "degree"}, {"name": "degree"}]}
        )
        assert report.labels() == ["degree", "degree#2"]
        assert report["degree"].values == report["degree#2"].values

    def test_cached_entry_is_not_mutated_by_serving_it(self, tmp_path):
        """Responses are clones; the cached original keeps its own label,
        notes and provenance no matter how often (or in what batch shape)
        it is served."""
        service = make_service(tmp_path)
        service.analyze({"algorithm": "degree"})
        service.analyze({"algorithms": [{"name": "triangles"}, {"name": "degree"}]})
        key = result_key(
            service.handle.snapshot().content_hash, "degree", {}, "python"
        )
        original = service.cache.get(key)
        assert original.label == "degree"
        assert CACHE_NOTE not in original.notes
        assert original.provenance.snapshot_source != "result-cache"


class TestServiceInvalidation:
    def test_mutation_moves_the_hash_and_invalidates(self, tmp_path):
        service = make_service(tmp_path)
        before = service.analyze({"algorithm": "triangles"})

        outcome = service.add_edge({"source": 7, "target": 1})
        assert outcome["content_hash"] != outcome["old_content_hash"]
        assert outcome["invalidated"] == 1
        assert outcome["vertices_created"] == []

        after = service.analyze({"algorithm": "triangles"})
        assert after.cache == {"hits": 0, "misses": 1, "queue_depth": 0}
        # author 7 was isolated from the 1-6 clique component; the new edge
        # closes no triangle, so values agree even though the entry was fresh
        assert after["triangles"].values == before["triangles"].values
        # ... and the next repeat is a hit under the *new* hash
        assert service.analyze({"algorithm": "triangles"}).cache["hits"] == 1

    def test_add_edge_creates_missing_endpoints(self, tmp_path):
        service = make_service(tmp_path)
        outcome = service.add_edge({"source": 1, "target": 99})
        assert outcome["vertices_created"] == [99]
        report = service.analyze({"algorithm": "degree"})
        assert 99 in report["degree"].values

    def test_add_edge_payload_validation(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(UsageError, match="source"):
            service.add_edge({"target": 1})
        with pytest.raises(UsageError, match="JSON object"):
            service.add_edge([1, 2])


class TestServiceAdmission:
    def test_over_limit_uncached_work_is_refused(self, tmp_path):
        service = make_service(tmp_path, max_inflight=1, max_queue=0)
        # simulate one in-flight plan holding the only execution slot
        assert service._slots.acquire(blocking=False)
        try:
            with pytest.raises(ServiceOverloadedError, match="retry later"):
                service.analyze({"algorithm": "degree"})
            assert service.rejected == 1
        finally:
            service._leave()
        # slot free again: the same request now runs
        assert service.analyze({"algorithm": "degree"}).cache["misses"] == 1

    def test_cache_hits_bypass_admission(self, tmp_path):
        service = make_service(tmp_path, max_inflight=1, max_queue=0)
        service.analyze({"algorithm": "degree"})
        assert service._slots.acquire(blocking=False)  # saturate the slots
        try:
            report = service.analyze({"algorithm": "degree"})
            assert report.cache["hits"] == 1
        finally:
            service._leave()

    def test_constructor_validates_limits(self, tmp_path):
        with pytest.raises(UsageError, match="max_inflight"):
            make_service(tmp_path, max_inflight=0)
        with pytest.raises(UsageError, match="max_queue"):
            make_service(tmp_path, max_queue=-1)


class TestServiceErrors:
    def test_unknown_algorithm_matches_local_plan_message(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(UsageError, match="unknown algorithm 'nope'"):
            service.analyze({"algorithm": "nope"})

    def test_bad_params_match_local_plan_message(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(UsageError, match="damping must be in"):
            service.analyze({"algorithm": "pagerank", "params": {"damping": 2.0}})
        with pytest.raises(UsageError, match="missing required argument"):
            service.analyze({"algorithm": "bfs"})

    @pytest.mark.parametrize(
        "payload, pattern",
        [
            ([], "JSON object"),
            ({}, "'algorithm' or 'algorithms'"),
            ({"algorithm": "degree", "algorithms": []}, "not both"),
            ({"algorithms": []}, "non-empty"),
            ({"algorithms": [42]}, "name"),
            ({"algorithm": "degree", "params": "damping=0.9"}, "params must be"),
            ({"algorithm": "degree", "params": {"$": "map", "items": [[1, 2]]}},
             "parameter names must be strings"),
        ],
    )
    def test_malformed_payloads_are_usage_errors(self, tmp_path, payload, pattern):
        service = make_service(tmp_path)
        with pytest.raises(UsageError, match=pattern):
            service.analyze(payload)

    def test_failed_batch_caches_nothing(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(UsageError):
            service.analyze(
                {"algorithms": [{"name": "degree"}, {"name": "nope"}]}
            )
        assert len(service.cache) == 0


class TestServiceIntrospection:
    def test_health(self, tmp_path):
        service = make_service(tmp_path)
        health = service.health()
        assert health["status"] == "ok"
        assert health["database"] == "toy_dblp"
        assert health["backend"] == "python"

    def test_algorithms_catalogue_covers_the_registry(self, tmp_path):
        catalogue = make_service(tmp_path).algorithms()
        assert set(catalogue) == set(PLAN_ALGORITHMS)
        assert catalogue["bfs"]["params"]["source"] == "<required>"
        assert catalogue["pagerank"]["params"]["damping"] == 0.85

    def test_stats_counters(self, tmp_path):
        service = make_service(tmp_path)
        service.analyze({"algorithm": "degree"})
        service.analyze({"algorithm": "degree"})
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["admission"]["requests"] == 2
        assert stats["admission"]["queue_depth"] == 0
        assert stats["pool"] is None  # no warm pool on a default session

    def test_stats_blocks(self, tmp_path):
        stats = make_service(tmp_path).stats()
        assert set(stats) == {"cache", "admission", "pool", "store", "journal"}

    def test_warm_pool_session_exposes_pool_counters(self, tmp_path):
        session = GraphSession(
            make_db(), backend="python", snapshot_cache=str(tmp_path / "s"),
            warm_pool=True,
        )
        try:
            service = GraphService(session, session.graph(COAUTHOR_QUERY))
            assert service.stats()["pool"] == {"forks": 0, "reuses": 0, "leases": 0}
        finally:
            session.close()
