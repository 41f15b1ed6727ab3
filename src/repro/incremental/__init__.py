"""Dynamic algorithms: maintain previous results over a delta stream.

The complement of :mod:`repro.graph.delta`: once mutations are journaled as
edge deltas instead of invalidating the snapshot, results computed *before*
the mutation can often be repaired instead of recomputed — the
Berkholz-style "cheap re-answering after constant-time updates" frame the
ROADMAP names for the paper's Section 4.4 mutation workloads.

Each maintainer follows one contract — dense in, dense out::

    maintain(prev, csr, delta, params, backend) -> dense | None

``prev`` is the algorithm's previous result as a per-dense-index list (the
form every kernel returns; ``-1`` where a vertex has no value — BFS:
unreached), ``csr`` the *current* merged snapshot, ``delta`` a
:class:`~repro.graph.delta.DeltaOverlay` of the records the previous result
has not absorbed (netted once per journal position: entries at one
position share one), ``params`` the request's effective parameters and
``backend`` the resolved kernel backend.  ``prev`` is exact for the prefix
``[0, len(prev))`` of ``csr``'s vertices: within one journal generation the
overlay merges only ever *append* vertices, so a dense index never changes
meaning and nothing is re-keyed; a maintainer reads only the overlay's
``added``, ``removed`` and ``prior_present`` and treats it, like ``prev``,
as read-only (it may return ``prev`` unchanged).  External IDs never reach
a maintainer: a plan hands over the vector its registry entry computed
(``PlanAlgorithm.dense``), and the entry's ``shape`` turns a vector into
the reported value.  The returned vector (length ``csr.n``) must satisfy
the same equivalence contract the backends do: integer-valued results (components,
BFS, triangle counts) **equal** a cold recompute on the current snapshot bit-for-bit;
float-valued results (PageRank) match within the documented tolerance under
the same termination contract.  ``None`` means "this delta cannot be
repaired exactly" (e.g. a deletion that may split a component) and the
caller falls back to the cold kernel; it is never a verdict on the delta's
*width* — a wide delta costs the maintainers one dense pass, not a refusal.

Registered maintainers (:data:`MAINTAINERS`) are wired into
``PLAN_ALGORITHMS`` routing via ``PlanAlgorithm.maintainer``: ``components``
(label union-find; refuses net removals), ``pagerank`` (a correction series,
warm-started power iteration where it cannot hold), ``bfs`` (nearest-first
delta-BFS; refuses depth-limited results) and ``triangle-counts`` — the
per-vertex triangle vector both ``triangles`` and ``clustering`` name and
are shaped from (pair-by-pair common-neighbour repair; never refuses).  A
handle's previous vectors live in its :class:`MaintainedResults`
(``handle.maintained``), one per maintainer and parameters, which the
compiler records to and serves incremental nodes from, ``refresh()``
advances, and the graph service repairs stale entries through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.graph.delta import DeltaOverlay
from repro.incremental.bfs import maintain_bfs
from repro.incremental.components import maintain_components
from repro.incremental.pagerank import maintain_pagerank
from repro.incremental.triangles import maintain_triangles
from repro.session.report import canonical_params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph
    from repro.session.plan import PlanAlgorithm
    from repro.session.session import GraphHandle

#: maintainer name (``PlanAlgorithm.maintainer``) -> maintain callable;
#: looked up on every run, so an entry swapped in place takes effect
MAINTAINERS = {
    "components": maintain_components,
    "pagerank": maintain_pagerank,
    "bfs": maintain_bfs,
    "triangle-counts": maintain_triangles,
}

__all__ = [
    "MAINTAINERS",
    "MaintainedResults",
    "maintain_components",
    "maintain_pagerank",
    "maintain_bfs",
    "maintain_triangles",
]


@dataclass
class _Entry:
    """A vector its maintainer (the key's first half) carries over deltas."""

    #: registry names of the algorithms read from it (``triangles`` and
    #: ``clustering`` share one); it goes when the last is forgotten
    algorithms: set[str]
    #: effective parameters of the remembered run
    params: dict[str, Any]
    #: journal position (``journal.total``) the values are exact at
    position: int
    #: the per-dense-index vector, exact on the prefix ``[0, len(dense))``
    #: of every later snapshot of the same generation — merges only ever
    #: append vertices.  Replaced, never mutated, and never handed out:
    #: reports get a fresh ``shape``
    dense: list
    #: journal generation the position is valid for (a rebaseline that could
    #: not be expressed as edge records bumps it, invalidating the entry)
    generation: int


class MaintainedResults:
    """A handle's previous results, one vector per (maintainer, canonical
    params), carried over its delta journal; no other code touches them.  Every
    method runs under the handle's own lock, so a snapshot build, a service
    write and a maintainer run stay exclusive.  Non-journaled handles remember
    nothing."""

    def __init__(self, handle: "GraphHandle", lock) -> None:
        self._handle = handle
        self._lock = lock
        self._entries: dict[tuple[str, str], _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _superseded(self, csr: "CSRGraph") -> bool:
        """Whether a write superseded ``csr`` after the caller fetched it, so
        ``journal.total`` is not its position.  Caller holds the lock."""
        return self._handle.graph.cached_snapshot() is not csr

    def record(self, spec: "PlanAlgorithm", params: dict, csr: "CSRGraph", dense: list) -> None:
        """Remember ``dense``, the vector ``spec.name(params)`` was freshly
        shaped from on ``csr``, for its maintainer to carry over future
        deltas: it replaces the vector the entry held, and ``spec.name``
        joins the algorithms holding it."""
        journal = self._handle.journal
        if journal is None:
            return
        with self._lock:
            if self._superseded(csr):
                return
            key = (spec.maintainer, canonical_params(params))
            held = self._entries.get(key)
            self._entries[key] = _Entry(
                algorithms={spec.name} | (held.algorithms if held else set()),
                params=dict(params),
                position=journal.total,
                dense=dense,
                generation=self._handle.graph.generation,
            )

    def forget(self, spec: "PlanAlgorithm", params: dict) -> None:
        """``spec.name(params)`` no longer holds its vector: whoever kept the
        result for re-serving (the service's result cache) let it go.  The
        vector goes with the last algorithm holding it."""
        with self._lock:
            key = (spec.maintainer, canonical_params(params))
            entry = self._entries.get(key)
            if entry is not None:
                entry.algorithms.discard(spec.name)
                if not entry.algorithms:
                    del self._entries[key]

    def _advance(
        self, key: tuple[str, str], entry: _Entry, journal, csr: "CSRGraph", backend, windows: dict
    ) -> int | None:
        """Bring ``entry`` up to ``csr``, the current snapshot, through its
        maintainer: the delta records absorbed, or None (and the entry
        dropped, so it does not retry on every plan) when it cannot be
        maintained.  ``windows``: journal position -> overlay of its window,
        netted once for the entries there.  Caller holds the lock."""
        records = None
        if entry.generation == self._handle.graph.generation:
            # (else a rebaseline — vertex deletion, out-of-band mutation —
            # broke the delta stream the entry is keyed to.)  None here: the
            # entry predates the current base, compacted away before it
            # could be maintained
            records = journal.records_since(entry.position)
        dense = entry.dense
        if records:
            delta = windows.get(entry.position)
            if delta is None:
                delta = windows[entry.position] = DeltaOverlay(records)
            dense = MAINTAINERS[key[0]](dense, csr, delta, entry.params, backend)
        if records is None or dense is None:
            del self._entries[key]
            return None
        entry.dense = dense
        entry.position = journal.total
        return len(records)

    def serve(
        self, spec: "PlanAlgorithm", params: dict, csr: "CSRGraph", backend
    ) -> "tuple[Any, float, str] | None":
        """``spec.name(params)`` on ``csr`` as ``(values, seconds, note)``, by
        maintaining the remembered vector over the journal window and
        shaping it with ``spec.shape`` — a fresh value per call — or None to
        fall back cold.  ``spec.name`` joins the algorithms holding it."""
        journal = self._handle.journal
        if journal is None:
            return None
        with self._lock:
            if self._superseded(csr):
                return None
            started = time.perf_counter()
            key = (spec.maintainer, canonical_params(params))
            entry = self._entries.get(key)
            if entry is None:
                return None
            absorbed = self._advance(key, entry, journal, csr, backend, {})
            if absorbed is None:
                return None
            entry.algorithms.add(spec.name)
            return (
                spec.shape(csr, entry.dense),
                time.perf_counter() - started,
                f"incremental: maintained over {absorbed} delta record(s)"
                if absorbed
                else "incremental: the maintained vector was already current",
            )

    def advance_all(self, csr: "CSRGraph", backend) -> tuple[list[str], list[str]]:
        """Carry every entry forward to ``csr``, just fetched under the lock:
        the algorithm names maintained, and those dropped (no maintainer
        could repair them; they recompute cold on their next request)."""
        maintained: list[str] = []
        dropped: list[str] = []
        windows: dict = {}
        with self._lock:
            journal = self._handle.journal  # entries exist only when it does
            for key, entry in list(self._entries.items()):
                advanced = self._advance(key, entry, journal, csr, backend, windows)
                (maintained if advanced is not None else dropped).extend(sorted(entry.algorithms))
        return maintained, dropped
