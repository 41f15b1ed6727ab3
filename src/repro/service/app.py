"""The graph analysis service core: one shared session, many request threads.

:class:`GraphService` is the HTTP-agnostic heart of :mod:`repro.service` —
the wire layer (:mod:`repro.service.http`) is a thin translator over the
methods here, so everything below is unit-testable without sockets.

One service owns one :class:`~repro.session.GraphSession` and one
:class:`~repro.session.GraphHandle` (the served graph).  Per request batch
it does three things:

1. **Validate** every ``(algorithm, params)`` request through the plan
   registry's own front door (:meth:`AnalysisPlan.add`), so the service
   accepts exactly what a local plan accepts and rejects with the same
   one-line :class:`~repro.exceptions.UsageError` messages — and so the
   *effective* parameters (defaults filled in) are known before any cache
   probe.

2. **Probe the result cache** under (snapshot content hash, algorithm,
   canonical params, backend).  Hits are served as clones whose provenance
   says so (``snapshot_source="result-cache"`` plus a note) without touching
   the kernel, the snapshot, or an execution slot.  Misses run as **one**
   plan over the shared snapshot (so a mixed batch still pays for the
   snapshot once), and every fresh result is cached on the way out.

3. **Admission-control the misses.**  ``max_inflight`` plans may execute
   concurrently; up to ``max_queue`` more may wait.  Anything beyond that is
   refused with :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 503)
   instead of queueing unboundedly — cache hits bypass admission entirely,
   so a hot cache keeps absorbing load even while the execution slots are
   saturated.

Mutations (:meth:`add_edge`) go through the same object: the graph's version
bump gives the next snapshot a new content hash (all old cache keys
unmatchable), and entries under the superseded hash are evicted eagerly.

**Incremental mode** (``incremental=True``) wraps the served graph in a
:class:`~repro.graph.delta.JournaledGraph`: mutations become O(1) journal
appends, snapshots merge the delta over the mmap'd base instead of
rebuilding, and a mutation's cache sweep turns from evict-everything into
carry-what-we-can — superseded entries whose algorithm has a dynamic
maintainer (:mod:`repro.incremental`: ``pagerank``, ``components``,
``bfs``, and ``triangles`` / ``clustering`` through their shared
``triangle-counts`` vector) move to the new snapshot hash in place, marked
stale, and only the rest (``degree``, ``kcore``, the sweeps, ...) are
evicted.  No maintainer runs on the write: a stale entry is repaired when
it is next read, over every write since it was computed
(``MaintainedResults.serve``), and one nobody reads again is never
repaired.  The state behind those repairs is the handle's
:class:`~repro.incremental.MaintainedResults`, bounded by the cache — when
the cache drops a result, ``MaintainedResults.forget`` drops it too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.exceptions import ServiceOverloadedError, UsageError
from repro.service.cache import ResultCache, result_key
from repro.service.codec import decode_value, encode_value
from repro.session.plan import PLAN_ALGORITHMS, REQUIRED
from repro.session.report import AnalysisReport, AnalysisResult, Provenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import GraphHandle, GraphSession

#: note attached to every result served from the cache instead of executed
CACHE_NOTE = "note: served from the session result cache (not re-executed)"


def _maintainable(result: AnalysisResult) -> bool:
    """Whether a dynamic maintainer can carry ``result`` over a write."""
    return PLAN_ALGORITHMS[result.algorithm].maintainer is not None


def _decode_params(params: Any) -> dict[str, Any]:
    """Request params as a keyword dict.

    Clients send either a plain JSON object (string keys, the common case)
    or the codec's tagged ``{"$": "map", ...}`` form when a parameter value
    needs a non-JSON-native type (e.g. a tuple vertex ID for ``bfs``).
    """
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise UsageError(f"params must be a JSON object (got {type(params).__name__})")
    try:
        if params.get("$") == "map":
            decoded = decode_value(params)
        else:
            decoded = {key: decode_value(value) for key, value in params.items()}
    except (ValueError, TypeError, KeyError) as exc:
        # a malformed tagged value is the caller's mistake, not a crash
        raise UsageError(f"params: malformed value ({exc!r})") from None
    for key in decoded:
        if not isinstance(key, str):
            raise UsageError(f"parameter names must be strings (got {key!r})")
    return decoded


def _parse_requests(payload: Any) -> list[tuple[str, dict[str, Any]]]:
    """Normalise an /analyze payload into ``(algorithm, params)`` pairs.

    Accepted shapes: ``{"algorithm": name, "params": {...}}`` for a single
    request, or ``{"algorithms": [{"name": ..., "params": {...}}, ...]}``
    for a batch.  Malformed payloads are caller mistakes → UsageError.
    """
    if not isinstance(payload, dict):
        raise UsageError("request body must be a JSON object")
    if "algorithm" in payload and "algorithms" in payload:
        raise UsageError("pass either 'algorithm' or 'algorithms', not both")
    if "algorithm" in payload:
        entries: list[Any] = [
            {"name": payload["algorithm"], "params": payload.get("params")}
        ]
    elif "algorithms" in payload:
        entries = payload["algorithms"]
        if not isinstance(entries, list) or not entries:
            raise UsageError("'algorithms' must be a non-empty JSON array")
    else:
        raise UsageError("request body needs an 'algorithm' or 'algorithms' field")
    requests = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise UsageError(
                "each algorithms[] entry must be a name string or an object "
                "with a 'name' field"
            )
        requests.append((entry["name"], _decode_params(entry.get("params"))))
    return requests


class GraphService:
    """Serve one session-managed graph to concurrent clients (module doc)."""

    def __init__(
        self,
        session: "GraphSession",
        handle: "GraphHandle",
        *,
        cache_size: int = 128,
        max_inflight: int = 4,
        max_queue: int = 16,
        incremental: bool = False,
    ) -> None:
        if max_inflight < 1:
            raise UsageError(f"max_inflight must be at least 1 (got {max_inflight})")
        if max_queue < 0:
            raise UsageError(f"max_queue must be non-negative (got {max_queue})")
        if cache_size < 1:
            raise UsageError(f"cache_size must be at least 1 (got {cache_size})")
        self.incremental = incremental
        if incremental:
            from repro.graph.delta import JournaledGraph

            if not isinstance(handle.graph, JournaledGraph):
                # re-wrap through the session so the journaled handle gets
                # its own store key / snapshot cache line; the original
                # handle (and its graph) stay untouched for the caller
                handle = session.wrap(JournaledGraph(handle.graph))
        self.session = session
        self.handle = handle
        self.cache = ResultCache(cache_size)
        self.cache.on_drop = lambda result: handle.maintained.forget(
            PLAN_ALGORITHMS[result.algorithm], result.params
        )
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._queue_lock = threading.Lock()
        self._queued = 0
        # serialises mutations against each other (snapshot builds are
        # already serialised by the handle's own lock)
        self._mutate_lock = threading.Lock()
        #: request-level observability, lock-guarded by _queue_lock
        self.requests = 0
        self.rejected = 0

    # ------------------------------------------------------------------ #
    # admission control (misses only; cache hits never take a slot)
    # ------------------------------------------------------------------ #
    def _admit(self) -> None:
        if self._slots.acquire(blocking=False):
            return
        with self._queue_lock:
            if self._queued >= self._max_queue:
                self.rejected += 1
                raise ServiceOverloadedError(
                    f"service overloaded: {self._max_inflight} plan(s) executing "
                    f"and {self._queued} request(s) already queued "
                    f"(max_queue={self._max_queue}); retry later"
                )
            self._queued += 1
        try:
            self._slots.acquire()
        finally:
            with self._queue_lock:
                self._queued -= 1

    def _leave(self) -> None:
        self._slots.release()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an execution slot."""
        with self._queue_lock:
            return self._queued

    # ------------------------------------------------------------------ #
    # read endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "database": self.session.database_name,
            "representation": self.handle.representation,
            "backend": self.session.backend.name,
            "parallelism": self.session.parallelism,
        }

    def algorithms(self) -> dict[str, Any]:
        """The service's request catalogue: every plan algorithm with its
        accepted parameters and defaults (required ones marked)."""
        catalogue = {}
        for name, spec in sorted(PLAN_ALGORITHMS.items()):
            catalogue[name] = {
                "params": {
                    key: ("<required>" if value is REQUIRED else encode_value(value))
                    for key, value in spec.defaults.items()
                }
            }
        return catalogue

    def stats(self) -> dict[str, Any]:
        with self._queue_lock:
            admission = {
                "max_inflight": self._max_inflight,
                "max_queue": self._max_queue,
                "queue_depth": self._queued,
                "requests": self.requests,
                "rejected": self.rejected,
            }
        pool_manager = self.session.pool_manager
        store = self.session.store
        journal = self.handle.journal
        # one snapshot: the journal block's counters agree with the cache's
        cache = self.cache.stats()
        journal_stats = None
        if journal is not None:
            journal_stats = {
                **journal.summary(),
                "patched": cache["patched"],
                "evicted": cache["invalidations"],
            }
        return {
            "cache": cache,
            "admission": admission,
            "pool": dict(pool_manager.counters) if pool_manager is not None else None,
            # which store path answered each snapshot request: "source-hit"
            # (trusted reopen, nothing extracted), "hit", "stale", "miss", ...
            "store": dict(store.counters) if store is not None else None,
            "journal": journal_stats,
        }

    # ------------------------------------------------------------------ #
    # analyze: the cache-fronted plan runner
    # ------------------------------------------------------------------ #
    def analyze(self, payload: Any) -> AnalysisReport:
        """Run (or serve from cache) one request batch; returns the report.

        Raises :class:`UsageError` for malformed/invalid requests and
        :class:`ServiceOverloadedError` when admission control refuses the
        batch — the HTTP layer maps these to 4xx / 503 one-line messages.
        """
        started = time.perf_counter()
        with self._queue_lock:
            self.requests += 1
        requests = _parse_requests(payload)

        # validate through the plan registry's own entry point: identical
        # acceptance, identical error messages, and the *effective* params
        # (defaults filled in) the cache key needs
        probe = self.handle.analyze()
        for name, params in requests:
            probe.add(name, **params)
        effective = probe.requests()

        # the current snapshot pins the cache epoch; on an unchanged graph
        # this is the handle's cached snapshot (no build, no kernel work)
        content_hash = self.handle.snapshot().content_hash
        backend_name = self.session.backend.name

        keys = [
            result_key(content_hash, name, params, backend_name)
            for name, params in effective
        ]
        cached: dict[int, AnalysisResult] = {}
        for index, key in enumerate(keys):
            hit = self.cache.get(key, self._repair)
            if hit is not None:
                cached[index] = hit
        miss_indexes = [i for i in range(len(keys)) if i not in cached]

        fresh_report: AnalysisReport | None = None
        if miss_indexes:
            self._admit()
            try:
                plan = self.handle.analyze()
                for index in miss_indexes:
                    name, params = effective[index]
                    plan.add(name, **params)
                fresh_report = plan.run()
            finally:
                self._leave()
            for index, result in zip(miss_indexes, fresh_report.results):
                self.cache.put(keys[index], result)

        # assemble the response in request order: fresh results as-is,
        # cache hits as clones whose provenance says where they came from
        results: list[AnalysisResult] = []
        seen_labels: dict[str, int] = {}
        fresh_by_index = (
            dict(zip(miss_indexes, fresh_report.results)) if fresh_report else {}
        )
        for index, (name, _) in enumerate(effective):
            count = seen_labels.get(name, 0) + 1
            seen_labels[name] = count
            label = name if count == 1 else f"{name}#{count}"
            if index in cached:
                original = cached[index]
                results.append(
                    replace(
                        original,
                        label=label,
                        provenance=replace(
                            original.provenance, snapshot_source="result-cache"
                        ),
                        notes=original.notes + (CACHE_NOTE,),
                    )
                )
            else:
                result = fresh_by_index[index]
                if result.label != label:
                    result = replace(result, label=label)
                results.append(result)

        hits = len(cached)
        misses = len(miss_indexes)
        if fresh_report is not None:
            provenance = fresh_report.provenance
        else:
            provenance = Provenance(
                representation=self.handle.representation,
                backend=backend_name,
                snapshot_source="result-cache",
                parallelism=self.session.parallelism,
            )
        journal = self.handle.journal
        return AnalysisReport(
            results=results,
            provenance=provenance,
            total_seconds=time.perf_counter() - started,
            snapshot_builds=fresh_report.snapshot_builds if fresh_report else 0,
            pool_starts=fresh_report.pool_starts if fresh_report else 0,
            snapshot_writes=fresh_report.snapshot_writes if fresh_report else 0,
            nodes_computed=fresh_report.nodes_computed if fresh_report else 0,
            nodes_reused=fresh_report.nodes_reused if fresh_report else 0,
            cache={"hits": hits, "misses": misses, "queue_depth": self.queue_depth},
            journal=None if journal is None else journal.summary(),
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, payload: Any) -> dict[str, Any]:
        """Add one logical edge to the served graph.

        Payload: ``{"source": ..., "target": ...}`` (tagged values allowed).
        Missing endpoints are created.  The mutation bumps the graph's
        version, so the next snapshot carries a new content hash — every
        cached result's key stops matching automatically; entries under the
        superseded hash are swept eagerly, and the response reports both
        hashes so clients can watch the epoch move.

        On a plain service the sweep evicts everything.  On an incremental
        service it carries instead: each superseded entry whose algorithm
        has a dynamic maintainer moves to the new hash, stale, to be
        repaired when it is next read (reported as ``patched``); only the
        rest are evicted (``invalidated``).  No maintainer runs here.
        """
        if not isinstance(payload, dict):
            raise UsageError("request body must be a JSON object")
        missing = [field for field in ("source", "target") if field not in payload]
        if missing:
            raise UsageError(f"add_edge needs {' and '.join(missing)} field(s)")
        source = decode_value(payload["source"])
        target = decode_value(payload["target"])
        graph = self.handle.graph
        # the handle's lock too: no snapshot build or maintainer run of a
        # concurrent plan may see the graph half-mutated, or pair a snapshot
        # with a journal position it does not hold
        with self._mutate_lock, self.handle._lock:
            old_hash = self.handle.snapshot().content_hash
            created = []
            for vertex in (source, target):
                if not graph.has_vertex(vertex):
                    graph.add_vertex(vertex)
                    created.append(vertex)
            graph.add_edge(source, target)
            new_hash = self.handle.snapshot().content_hash
            invalidated = 0
            patched = 0
            if new_hash != old_hash:
                if self.incremental:
                    patched, invalidated = self.cache.supersede(
                        old_hash, new_hash, _maintainable
                    )
                else:
                    invalidated = self.cache.invalidate(old_hash)
        return {
            "source": encode_value(source),
            "target": encode_value(target),
            "vertices_created": [encode_value(vertex) for vertex in created],
            "old_content_hash": old_hash.hex(),
            "content_hash": new_hash.hex(),
            "invalidated": invalidated,
            "patched": patched,
        }

    def _repair(self, key: tuple, stale: AnalysisResult) -> AnalysisResult | None:
        """Bring a stale cache entry (carried over writes by
        :meth:`ResultCache.supersede`) up to the snapshot its key names,
        through its dynamic maintainer over every write since it was
        computed.  None — a miss for the reader — when a write has moved the
        snapshot past ``key`` meanwhile or the maintainer refuses."""
        # no write may land between the hash check and the maintainer run
        with self._mutate_lock:
            csr = self.handle.snapshot()
            if csr.content_hash.hex() != key[0]:
                return None
            served = self.handle.maintained.serve(
                PLAN_ALGORITHMS[stale.algorithm], stale.params, csr, self.session.backend
            )
            delta_edges = self.handle.delta_edges
        if served is None:
            return None
        values, seconds, note = served
        return replace(
            stale,
            values=values,
            seconds=seconds,
            engine="incremental",
            provenance=replace(
                stale.provenance, snapshot_source="base+delta", delta_edges=delta_edges
            ),
            notes=(note,),
            nodes=(),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release session resources (the warm worker pool)."""
        self.session.close()
