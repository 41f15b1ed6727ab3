"""Figure 18 (new) — the graph service's result cache under client load.

GraphGen is *used* as a front-end service: many analysts (or one dashboard
refreshing) ask the same questions of one extracted graph.  PR 7's
:mod:`repro.service` answers repeated questions from a session-level result
cache keyed on (snapshot content hash, algorithm, canonical params,
backend) — a cached request deserialises a stored
:class:`~repro.session.AnalysisResult` instead of executing kernels, and
bypasses admission control entirely.

Driven here over a real loopback HTTP server with several concurrent client
threads:

* **uncached** — every request carries fresh parameters, so every request
  misses the cache and executes a plan (the PR-6 cost, plus the wire);
* **cached** — every request repeats one warmed entry, so every request is
  a cache hit (wire + codec only).

Pinned, as counts: the uncached stream is all misses, each executing a
plan; the cached stream is all hits and compiles **no** plan; every
cached response is bit-identical to the original execution.  That is what
makes a hit cheap; how cheap, in requests per second, is ``bench/``'s
``serve_mix`` workload to say (``service.analyze_hit_s`` /
``service.analyze_miss_s``), not a ratio of two wall clocks in tier-1.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.datasets import COAUTHOR_QUERY, generate_dblp
from repro.service import GraphService, decode_report, make_server, serve_in_thread
from repro.session import GraphSession
from repro.session.compiler import CompilerCounters

CLIENT_THREADS = 4
UNCACHED_REQUESTS = 24
CACHED_REQUESTS = 200

#: stream -> (requests, cache hits, cache misses, plans compiled)
_STREAMS: dict[str, tuple[int, int, int, int]] = {}


def _post(base: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"{base}/analyze", data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def _drive(base: str, payloads: list[dict]) -> list[dict]:
    """Fire ``payloads`` across CLIENT_THREADS concurrent clients; returns
    the responses, in payload order."""
    queue = list(enumerate(payloads))
    responses: list[dict | None] = [None] * len(payloads)
    errors: list[Exception] = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if not queue or errors:
                    return
                index, payload = queue.pop()
            try:
                responses[index] = _post(base, payload)
            except Exception as exc:  # pragma: no cover - diagnostic path
                with lock:
                    errors.append(exc)
                return

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    assert all(response is not None for response in responses)
    return responses


class TestFig18ServiceCache:
    def test_cached_stream_sustains_5x_the_uncached_rate(self):
        db = generate_dblp(
            num_authors=500, num_publications=900, mean_authors_per_pub=4.0, seed=1
        )
        session = GraphSession(db, backend="python")
        service = GraphService(
            session,
            session.graph(COAUTHOR_QUERY),
            cache_size=max(256, UNCACHED_REQUESTS + 8),
            max_inflight=CLIENT_THREADS,
            max_queue=UNCACHED_REQUESTS + CACHED_REQUESTS,
        )
        server = make_server(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        serve_in_thread(server)
        def counters() -> tuple[int, int, int]:
            stats = service.cache.stats()
            return stats["hits"], stats["misses"], CompilerCounters.plans_compiled

        def stream(name: str, payloads: list[dict]) -> list[dict]:
            before = counters()
            responses = _drive(base, payloads)
            hits, misses, plans = (now - then for now, then in zip(counters(), before))
            _STREAMS[name] = (len(payloads), hits, misses, plans)
            return responses

        try:
            # uncached stream: every request carries fresh parameters, so
            # every request executes
            stream(
                "uncached",
                [
                    {"algorithm": "pagerank", "params": {"damping": round(0.5 + 0.001 * i, 6)}}
                    for i in range(UNCACHED_REQUESTS)
                ],
            )
            requests, hits, misses, plans = _STREAMS["uncached"]
            assert (hits, misses) == (0, UNCACHED_REQUESTS)
            # (the process-global plan counter is bumped without a lock by
            # up to CLIENT_THREADS concurrent runs: bounded, not pinned)
            assert 0 < plans <= UNCACHED_REQUESTS

            # cached stream: one warmed entry, repeated
            hot = {"algorithm": "pagerank", "params": {"damping": 0.85}}
            reference = decode_report(_post(base, hot))
            responses = stream("cached", [hot] * CACHED_REQUESTS)
            assert _STREAMS["cached"] == (CACHED_REQUESTS, CACHED_REQUESTS, 0, 0)

            # cached responses are bit-identical to the original execution
            for response in responses:
                served = decode_report(response)["pagerank"]
                assert served.provenance.snapshot_source == "result-cache"
                assert repr(served.values) == repr(reference["pagerank"].values)
        finally:
            server.shutdown()
            server.server_close()
            session.close()

    def test_record_results(self):
        """Both streams of the figure ran and were accounted for (a failed
        or deselected stream leaves its slot empty)."""
        assert sorted(_STREAMS) == ["cached", "uncached"]
        assert all(requests == hits + misses for requests, hits, misses, _ in _STREAMS.values())
