"""Session-level analysis result cache for the graph service.

The paper's workload is "extract once, analyze many times" — and a *served*
graph pushes that one step further: many clients ask the same questions of
the same snapshot.  :class:`ResultCache` memoises finished
:class:`~repro.session.AnalysisResult` objects under a key that pins down
everything that could change the answer:

    (snapshot content hash, algorithm name, canonicalized parameters,
     kernel backend)

The **content hash** term is what makes invalidation automatic: a mutation
(``add_edge``) bumps the graph's version, the next snapshot has a new hash,
and every request computes a key no stale entry can match.  Entries under
superseded hashes are additionally evicted eagerly (``invalidate``) so a
long-lived service does not accumulate results for graphs that no longer
exist.  An *incremental* service does better for maintainable algorithms:
``supersede`` re-keys their entries to the new hash in place (LRU position
kept) and marks them **stale**, evicting only the rest, so a write costs no
maintainer work at all.  A stale entry is repaired when — and only if — it
is read again: :meth:`ResultCache.get` hands it to the caller's ``repair``
(the dynamic maintainers of :mod:`repro.incremental`, over every write since
the entry was computed), and ``patched`` counts the repairs actually made.
**Canonicalized parameters** (sorted ``key=repr(value)`` pairs over the
*effective* params, defaults filled in) make ``pagerank()`` and
``pagerank(damping=0.85)`` the same entry — one rendering,
:func:`repro.session.report.canonical_params`, which the plan compiler's
structural node keys use too.

Capacity is bounded LRU; all operations are lock-guarded because the
service's HTTP front-end drives this from many request threads at once.
Whatever else remembers a result per request (the handle's
:class:`~repro.incremental.MaintainedResults`) is bounded by the cache too:
``on_drop`` hears of every result the cache lets go while no live entry
still answers the same request, and the service hands it to
``MaintainedResults.forget``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.session.report import AnalysisResult, canonical_params


def result_key(
    content_hash: bytes, algorithm: str, params: dict[str, Any], backend: str
) -> tuple[str, str, str, str]:
    """The full cache key for one analysis request (see module docstring)."""
    return (content_hash.hex(), algorithm, canonical_params(params), backend)


class ResultCache:
    """Bounded, thread-safe LRU of finished analysis results."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be at least 1 (got {capacity})")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, AnalysisResult]" = OrderedDict()
        #: keys whose result predates the snapshot in their key (``supersede``)
        self._stale: set[tuple] = set()
        self._lock = threading.Lock()
        #: called (without the lock) with each dropped result no live entry
        #: still answers — LRU eviction, invalidation, a failed repair
        self.on_drop: Callable[[AnalysisResult], None] | None = None
        #: monotonic observability counters (exposed via /stats and in every
        #: service report's ``cache`` dict)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.patched = 0

    def get(
        self,
        key: tuple,
        repair: Callable[[tuple, AnalysisResult], AnalysisResult | None] | None = None,
    ) -> AnalysisResult | None:
        """The current result for ``key`` (refreshing its LRU position), or
        None — counted as a hit or a miss.

        A stale entry is first brought up to date by ``repair(key, result)``,
        called without the lock so hits on other keys never wait for it: the
        repaired result replaces the entry where it stands and counts as a
        hit (and in ``patched``).  A repair that returns None drops the entry
        and is a miss; without ``repair`` a stale entry is a miss and stays.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                if key not in self._stale:
                    self.hits += 1
                    return result
            if result is None or repair is None:
                self.misses += 1
                return None
        repaired = repair(key, result)
        dropped = []
        with self._lock:
            # unless a concurrent repair, write or put settled it meanwhile
            if self._entries.get(key) is result:
                self._stale.discard(key)
                if repaired is None:
                    del self._entries[key]
                    self.invalidations += 1
                    dropped.append((key, result))
                else:
                    self._entries[key] = repaired
                    self.patched += 1
            if repaired is None:
                self.misses += 1
            else:
                self.hits += 1
        self._forget(dropped)
        return repaired

    def put(self, key: tuple, result: AnalysisResult) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used
        entry when over capacity."""
        dropped = []
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            self._stale.discard(key)
            while len(self._entries) > self.capacity:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._stale.discard(evicted_key)
                dropped.append((evicted_key, evicted))
                self.evictions += 1
        self._forget(dropped)

    def supersede(
        self,
        old_hash: bytes,
        new_hash: bytes,
        carry: Callable[[AnalysisResult], bool],
    ) -> tuple[int, int]:
        """A write replaced snapshot ``old_hash`` by ``new_hash``: every entry
        cached against the old hash that ``carry`` accepts moves to the new
        hash in place — LRU position kept, marked stale for :meth:`get` to
        repair if it is ever read — and the rest are evicted.  Returns
        ``(carried, evicted)``."""
        old, new = old_hash.hex(), new_hash.hex()
        carried = 0
        dropped = []
        with self._lock:
            entries: "OrderedDict[tuple, AnalysisResult]" = OrderedDict()
            stale = set()
            for key, result in self._entries.items():
                if key[0] == old:
                    moved = (new,) + key[1:]
                    # an entry already under the new hash is the fresher one
                    if moved not in self._entries and carry(result):
                        entries[moved] = result
                        stale.add(moved)
                        carried += 1
                    else:
                        dropped.append((key, result))
                    continue
                entries[key] = result
                if key in self._stale:
                    stale.add(key)
            self._entries, self._stale = entries, stale
            self.invalidations += len(dropped)
        self._forget(dropped)
        return carried, len(dropped)

    def invalidate(self, content_hash: bytes) -> int:
        """Drop every entry cached against ``content_hash`` (a superseded
        snapshot); returns how many were removed."""
        return self.supersede(content_hash, content_hash, lambda result: False)[1]

    def _forget(self, dropped: list[tuple[tuple, AnalysisResult]]) -> None:
        """Hand ``on_drop`` each dropped result whose request (key minus the
        hash) no live entry still answers.  Outside the lock, so a request
        re-cached concurrently may lose what ``on_drop`` discards — that costs
        one cold recompute, never a wrong answer."""
        if not dropped or self.on_drop is None:
            return
        with self._lock:
            live = {key[1:] for key in self._entries}
        for key, result in dropped:
            if key[1:] not in live:
                self.on_drop(result)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stale.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (the dict service reports carry as ``cache``)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "patched": self.patched,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }
