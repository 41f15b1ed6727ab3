"""Edge-delta journals: mutations stop costing a full snapshot rebuild.

Before this module every structural mutation invalidated the whole CSR
snapshot: ``add_edge`` bumped the representation's version counter, the next
``snapshot()`` walked the entire graph again, and
:meth:`~repro.graph.snapshot_store.SnapshotStore.fetch` declared the
persisted file stale and rewrote all of it.  For the paper's mutation
workloads (Section 4.4) — k edge changes with ``k`` far below ``m`` — that
is the wrong asymptotic: the new snapshot differs from the old one by ``k``
adjacency entries, yet we paid ``O(n + m)`` to rediscover it.

:class:`JournaledGraph` wraps any live representation and records every
*effective* logical mutation as an append-only delta record instead:

* ``("+", (u, v))`` — directed logical edge appeared,
* ``("-", (u, v))`` — directed logical edge disappeared,
* ``("V", u)``      — new vertex appeared.

Records are captured by probing ``exists_edge`` around the delegated
mutation, so symmetric representations (DEDUP-2 adds both directions from
one ``add_edge``) journal exactly the logical deltas they produced, and
no-op mutations journal nothing.  The wrapper's ``snapshot()`` then *merges*
instead of rebuilding: the frozen **base** CSR (built once) plus a
:class:`DeltaOverlay` decoded from the pending records yields the current
snapshot in ``O(n + m)`` array copying with zero graph traversal — and both
kernel backends expose a vectorised ``apply_overlay`` entry point for the
merge itself.

The journal also persists: ``<name>.csrd`` next to the base snapshot file
(versioned header carrying the content hash of the base it extends; see
:data:`DELTA_MAGIC`), appended to with ``O(new records)`` I/O by
:meth:`DeltaJournal.sync`.  ``SnapshotStore.fetch`` uses it to answer
``"base+delta"`` instead of ``"stale"`` for journaled graphs, compacting
into a fresh base once the journal exceeds a configurable fraction of the
base edge count.

Deletions of whole vertices (and any out-of-band mutation of the wrapped
graph, detected through its version token) cannot be expressed as edge
records; the wrapper then *rebaselines* — builds a fresh base from the
inner representation, rebases the journal onto it and bumps its
``generation`` so dynamic-algorithm state keyed to the old delta stream is
invalidated (see :mod:`repro.incremental`).
"""

from __future__ import annotations

import heapq
import os
import struct
from array import array
from bisect import insort
from operator import itemgetter
from pathlib import Path
from pickle import dumps as _pickle_dumps
from pickle import loads as _pickle_loads
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.exceptions import SnapshotFormatError
from repro.graph.api import Graph, VertexId
from repro.graph.snapshot_store import FixedHeader, atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph

DELTA_MAGIC = b"GGCSRDLT"
DELTA_FORMAT_VERSION = 1
_DELTA_HEADER = FixedHeader(  # magic, version, flags, reserved, count, base hash
    struct.Struct("<8sHHIQ32s"), DELTA_MAGIC, DELTA_FORMAT_VERSION,
    "delta journal header", "delta journal version",
)
DELTA_HEADER_SIZE = _DELTA_HEADER.layout.size  # 56 bytes
_RECORD_PREFIX = struct.Struct("<cI")  # op byte, payload length

#: valid record op bytes -> op strings
_OPS = {b"+": "+", b"-": "-", b"V": "V"}


# --------------------------------------------------------------------------- #
# journal file format
# --------------------------------------------------------------------------- #
def _encode_record(op: str, payload: Any) -> bytes:
    body = _pickle_dumps(payload, protocol=4)
    return _RECORD_PREFIX.pack(op.encode("ascii"), len(body)) + body


def _encode_records(records: list[tuple[str, Any]]) -> bytes:
    return b"".join(_encode_record(op, payload) for op, payload in records)


def write_journal(
    path: str | os.PathLike, base_hash: bytes, records: list[tuple[str, Any]]
) -> Path:
    """Write a complete delta journal atomically (:func:`~repro.graph.
    snapshot_store.atomic_write`)."""
    return atomic_write(
        path, _DELTA_HEADER.pack(len(records), base_hash), _encode_records(records)
    )


def read_journal(path: str | os.PathLike) -> tuple[bytes, list[tuple[str, Any]]]:
    """Read a ``.csrd`` delta journal back as ``(base_hash, records)``.

    Every malformed shape — short or bad header, unknown op byte, truncated
    payload, trailing bytes, corrupt pickle — raises
    :class:`~repro.exceptions.SnapshotFormatError`; callers treat that as
    "journal unusable" and fall back to a full snapshot rebuild.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read delta journal {path}: {exc}") from None
    count, base_hash = _DELTA_HEADER.unpack(data, str(path))
    records: list[tuple[str, Any]] = []
    position = DELTA_HEADER_SIZE
    for _ in range(count):
        if position + _RECORD_PREFIX.size > len(data):
            raise SnapshotFormatError(
                f"{path}: truncated delta journal (record {len(records) + 1} "
                f"of {count} is incomplete)"
            )
        op_byte, length = _RECORD_PREFIX.unpack_from(data, position)
        op = _OPS.get(op_byte)
        if op is None:
            raise SnapshotFormatError(
                f"{path}: unknown delta record op {op_byte!r}"
            )
        position += _RECORD_PREFIX.size
        if position + length > len(data):
            raise SnapshotFormatError(
                f"{path}: truncated delta journal (record {len(records) + 1} "
                f"payload runs past the end of the file)"
            )
        try:
            payload = _pickle_loads(data[position : position + length])
        except Exception as exc:
            raise SnapshotFormatError(
                f"{path}: corrupt delta record payload: {exc}"
            ) from None
        position += length
        records.append((op, payload))
    if position != len(data):
        raise SnapshotFormatError(
            f"{path}: {len(data) - position} trailing byte(s) after the last "
            "delta record"
        )
    return base_hash, records


# --------------------------------------------------------------------------- #
# the in-memory journal
# --------------------------------------------------------------------------- #
class DeltaJournal:
    """Append-only log of logical edge deltas since the current base snapshot.

    ``total`` counts every record ever appended (monotonic across rebases),
    which gives dynamic algorithms a stable *position* to key their previous
    results to: :meth:`records_since` replays exactly the records a result
    has not yet absorbed, or returns ``None`` when they predate the current
    base (compacted away) and the caller must recompute.
    """

    def __init__(self, base_hash: bytes | None = None) -> None:
        #: content hash of the base snapshot the pending records extend
        self.base_hash = base_hash
        #: records appended since the last :meth:`rebase`
        self.records: list[tuple[str, Any]] = []
        #: absolute position of ``records[0]`` (== records compacted away)
        self.base_total = 0
        #: records ever appended (monotonic)
        self.total = 0
        #: completed journal compactions (rebase onto a merged base)
        self.compactions = 0
        self._edge_records = 0
        # (path, records synced, file size) of the last sync target, so
        # repeated syncs append O(new records) instead of rewriting
        self._synced: tuple[str, int, int] | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def edge_records(self) -> int:
        """Pending edge records (``V`` vertex records excluded), kept as a
        running count by :meth:`append` and :meth:`rebase`."""
        return self._edge_records

    def append(self, op: str, payload: Any) -> None:
        if op not in ("+", "-", "V"):
            raise ValueError(f"unknown delta op {op!r}")
        self.records.append((op, payload))
        self.total += 1
        if op != "V":
            self._edge_records += 1

    def rebase(self, new_base_hash: bytes, *, compacted: bool = False) -> None:
        """Drop the pending records: they are merged into a new base."""
        self.base_total = self.total
        self.records = []
        self._edge_records = 0
        self.base_hash = new_base_hash
        self._synced = None
        if compacted:
            self.compactions += 1

    def summary(self) -> dict[str, int]:
        """Pending records, records ever appended and compactions: the
        journal block of a plan report, a service answer and ``/stats``."""
        return {"pending": len(self.records), "total": self.total, "compactions": self.compactions}

    def records_since(self, position: int) -> list[tuple[str, Any]] | None:
        """Records appended after absolute ``position``, or ``None`` when the
        requested range predates the current base (no longer replayable)."""
        if position < self.base_total or position > self.total:
            return None
        return self.records[position - self.base_total :]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def sync(self, path: str | os.PathLike) -> str:
        """Make ``path`` hold exactly this journal; returns how.

        ``"appended"`` — the file already held a prefix of the pending
        records for the same base, so only the new ones were written (plus a
        header rewrite): ``O(new records)`` I/O.  ``"rewritten"`` — the file
        was missing, for a different base, or diverged, and was atomically
        replaced.  ``"unchanged"`` — nothing to do.  An existing file that
        is *corrupt* (unparseable) raises
        :class:`~repro.exceptions.SnapshotFormatError` instead — the caller
        decides whether to rebuild from scratch.
        """
        if self.base_hash is None:
            raise ValueError("cannot sync a journal with no base hash")
        path = Path(path)
        key = str(path)
        count = len(self.records)

        if self._synced is not None and self._synced[0] == key:
            _, synced_count, synced_size = self._synced
            try:
                size_ok = path.stat().st_size == synced_size
            except OSError:
                size_ok = False
            if size_ok and synced_count <= count:
                if synced_count == count:
                    return "unchanged"
                self._append_to(path, synced_count, synced_size)
                return "appended"
            self._synced = None  # file changed under us: revalidate below

        if path.exists():
            stored_hash, stored = read_journal(path)  # raises on corruption
            if (
                stored_hash == self.base_hash
                and len(stored) <= count
                and stored == self.records[: len(stored)]
            ):
                self._synced = (key, len(stored), path.stat().st_size)
                if len(stored) == count:
                    return "unchanged"
                self._append_to(path, len(stored), self._synced[2])
                return "appended"
            # readable but for another base (or diverged): plain rewrite

        write_journal(path, self.base_hash, self.records)
        self._synced = (key, count, path.stat().st_size)
        return "rewritten"

    def _append_to(self, path: Path, from_count: int, at_size: int) -> None:
        payload = _encode_records(self.records[from_count:])
        with path.open("r+b") as handle:
            handle.seek(at_size)
            handle.write(payload)
            handle.seek(0)
            handle.write(_DELTA_HEADER.pack(len(self.records), self.base_hash))
        self._synced = (str(path), len(self.records), at_size + len(payload))


# --------------------------------------------------------------------------- #
# the overlay: net adjacency patches over a base snapshot
# --------------------------------------------------------------------------- #
class DeltaOverlay:
    """Net structural patch decoded from a delta record stream.

    The net state of a directed pair is its *last* record in the stream
    (an edge added then removed nets out; removed then re-added nets to
    present).  :meth:`materialize` merges the patch over a base
    :class:`~repro.graph.kernel.CSRGraph` by pure array copying:

    * base vertex order is preserved; new vertices append in
      first-appearance order,
    * each base row keeps its original target order minus any touched pair,
      then the row's net additions append in ascending dense-index order
      (the sorted adjacency patch both backends consume).

    Two overlays decoded from the same records over the same base produce
    element-wise identical snapshots on every backend, however the records
    were split between the constructor and :meth:`extend` calls.

    The one netting of journal records: the maintainers of
    :mod:`repro.incremental` read an overlay of their window, read-only.
    """

    def __init__(self, records: list[tuple[str, Any]] = ()) -> None:
        #: each touched directed pair's last op, in first-touch order
        self._last: dict[tuple[VertexId, VertexId], str] = {}
        #: touched pairs whose first op was ``-``, so present before the
        #: stream (the journal records only effective deltas)
        self.prior_present: set[tuple[VertexId, VertexId]] = set()
        # each ``V`` record's vertex, after how many pairs were touched first
        self._vertex_records: list[tuple[int, VertexId]] = []
        #: number of edge records decoded (the provenance ``delta_edges`` K)
        self.delta_edges = 0
        # (base, index, new_vertices, strip, additions) of the last base
        # planned, kept current by extend()
        self._planned: tuple | None = None
        self.extend(records)

    def extend(self, records: list[tuple[str, Any]]) -> None:
        """Fold the stream's next ``records`` into the patch.  A plan
        already resolved against a base is updated for the pairs they touch
        only, so the cost is the new records', not the whole stream's."""
        last = self._last
        prior = self.prior_present
        before: dict[tuple[VertexId, VertexId], str | None] = {}
        for op, payload in records:
            if op == "V":
                self._vertex_records.append((len(last), payload))
                continue
            self.delta_edges += 1
            if payload not in before:
                old = before[payload] = last.get(payload)
                if old is None and op == "-":
                    prior.add(payload)
            last[payload] = op
        if self._planned is not None:
            named = (v for op, payload in records for v in ((payload,) if op == "V" else payload))
            self._replan(named, before)

    def _replan(
        self, candidates: Iterable[VertexId], before: dict[tuple[VertexId, VertexId], str | None]
    ) -> None:
        """Carry the kept plan over vertex candidates (first-appearance
        order; those already planned are skipped) and the touched pairs'
        previous net ops (``None``: not in the plan yet)."""
        base, index, new_vertices, strip, additions = self._planned
        fresh = [v for v in dict.fromkeys(candidates) if v not in index]
        if fresh:
            # snapshots merged so far hold the old codec: extend a copy
            index = dict(index)
            for vertex in fresh:
                index[vertex] = len(index)
            new_vertices = new_vertices + fresh
        last = self._last
        for pair, old in before.items():
            row, target = index[pair[0]], index[pair[1]]
            strip.setdefault(row, set()).add(target)
            op = last[pair]
            if op == old:
                continue
            if op == "+":
                insort(additions.setdefault(row, []), target)
            elif old == "+":
                kept = additions[row]
                kept.remove(target)
                if not kept:
                    del additions[row]
        self._planned = (base, index, new_vertices, strip, additions)

    @property
    def vertex_candidates(self) -> list[VertexId]:
        """Vertices the stream may have introduced, in first-appearance order
        (filtered against the base at materialisation time).  A vertex first
        appears in a ``V`` record or in the first touch of a pair: the ``V``
        records slot in before the pairs first touched after them."""
        named = heapq.merge(
            ((at, (vertex,)) for at, vertex in self._vertex_records),
            enumerate(self._last),
            key=itemgetter(0),
        )
        return list(dict.fromkeys(v for _, vertices in named for v in vertices))

    @property
    def touched(self) -> set[tuple[VertexId, VertexId]]:
        """Every directed pair the stream touched (stripped from base rows)."""
        return set(self._last)

    @property
    def added(self) -> list[tuple[VertexId, VertexId]]:
        """Net-present pairs, in first-touch order."""
        return [pair for pair, op in self._last.items() if op == "+"]

    @property
    def removed(self) -> list[tuple[VertexId, VertexId]]:
        """Net-absent pairs, in first-touch order."""
        return [pair for pair, op in self._last.items() if op == "-"]

    def __bool__(self) -> bool:
        return bool(self._last or self._vertex_records)

    def plan(
        self, base: "CSRGraph"
    ) -> tuple[dict[VertexId, int], list[VertexId], dict[int, set[int]], dict[int, list[int]]]:
        """Resolve the patch against ``base``'s codec: the merged snapshot's
        ``external ID -> dense`` index (``base``'s own when no vertex is
        new), the appended new vertices, plus per-dense-row strip sets and
        sorted addition lists (rows indexed in the *merged* vertex order).

        The plan is kept for ``base`` and carried forward by :meth:`extend`;
        the returned containers are the overlay's own, to read, not change.
        """
        if self._planned is None or self._planned[0] is not base:
            # a new base: every pending pair is new to the plan
            self._planned = (base, base._index, [], {}, {})
            self._replan(self.vertex_candidates, dict.fromkeys(self._last))
        return self._planned[1:]

    def materialize(
        self,
        base: "CSRGraph",
        *,
        source: "Graph | None" = None,
        backend: Any = None,
    ) -> "CSRGraph":
        """The merged snapshot ``base ⊕ overlay`` (see class docstring).

        ``backend``: the kernel backend whose ``apply_overlay`` merges (the
        numpy one is vectorised); results are element-wise identical either
        way.
        """
        if backend is not None:
            return backend.apply_overlay(base, self, source=source)
        return merge_overlay(base, self, source=source)


def merge_overlay(
    base: "CSRGraph", overlay: DeltaOverlay, *, source: "Graph | None" = None
) -> "CSRGraph":
    """Reference (pure-python) overlay merge — the contract
    ``backend.apply_overlay`` implementations must match element-wise."""
    from repro.graph.kernel import CSRGraph

    index, new_vertices, strip, additions = overlay.plan(base)
    external_ids = list(base.external_ids) + new_vertices
    n = len(external_ids)
    base_n = base.n
    old_offsets = base.offsets
    old_targets = base.targets

    offsets = array("q", bytes(8 * (n + 1)))
    targets = array("q")
    extend = targets.extend
    for i in range(n):
        if i < base_n:
            row = old_targets[old_offsets[i] : old_offsets[i + 1]]
            dropped = strip.get(i)
            if dropped:
                extend(t for t in row if t not in dropped)
            else:
                extend(row)
        extra = additions.get(i)
        if extra:
            extend(extra)
        offsets[i + 1] = len(targets)
    return CSRGraph(offsets, targets, external_ids, source=source, index=index)


# --------------------------------------------------------------------------- #
# the journaling wrapper
# --------------------------------------------------------------------------- #
class JournaledGraph(Graph):
    """Graph API wrapper that journals effective mutations as edge deltas.

    All logical queries delegate to the wrapped representation; mutations
    delegate too, but probe ``exists_edge`` around the call so exactly the
    *effective* directed deltas are appended to :attr:`journal` (symmetric
    representations journal both directions; no-op mutations journal
    nothing).  ``snapshot()`` merges the frozen base CSR with the pending
    overlay instead of walking the representation (see the module
    docstring).
    """

    def __init__(self, inner: Graph) -> None:
        self._inner = inner
        self.representation_name = inner.representation_name
        self.journal = DeltaJournal()
        self._base_csr: "CSRGraph | None" = None
        # the pending records netted so far, and how many of them: a
        # snapshot folds in only the records appended since the last one
        self._overlay: DeltaOverlay | None = None
        self._folded = 0
        #: bumped whenever the journal could not express a change (vertex
        #: deletion, out-of-band mutation): previous results keyed to the
        #: delta stream are then unmaintainable
        self._generation = 0
        self._needs_rebaseline = False
        self._expected_inner_token: Any = None
        self._notes: list[str] = []

    # ------------------------------------------------------------------ #
    @property
    def inner(self) -> Graph:
        """The wrapped live representation."""
        return self._inner

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def delta_edges(self) -> int:
        """Pending edge-delta records over the current base (provenance K)."""
        return self.journal.edge_records

    @property
    def base_snapshot(self) -> "CSRGraph":
        """The frozen base CSR the journal extends (built on first use)."""
        self._ensure_baseline()
        return self._base_csr

    @property
    def base_hash(self) -> bytes:
        return self.base_snapshot.content_hash

    def add_note(self, note: str) -> None:
        """Queue a provenance note for the next snapshot consumer."""
        self._notes.append(note)

    def consume_notes(self) -> tuple[str, ...]:
        notes = tuple(self._notes)
        self._notes.clear()
        return notes

    # ------------------------------------------------------------------ #
    # journaling mutators
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: VertexId, **properties: Any) -> None:
        known = self._inner.has_vertex(vertex)
        self._inner.add_vertex(vertex, **properties)
        if not known:
            self.journal.append("V", vertex)
        self._note_inner_token()

    def add_edge(self, source: VertexId, target: VertexId) -> None:
        inner = self._inner
        new_source = not inner.has_vertex(source)
        new_target = not inner.has_vertex(target) and target != source or (
            new_source and target == source
        )
        existed = not new_source and not new_target
        had_forward = existed and inner.exists_edge(source, target)
        had_backward = (
            existed and source != target and inner.exists_edge(target, source)
        )
        inner.add_edge(source, target)
        if new_source:
            self.journal.append("V", source)
        if new_target and target != source:
            self.journal.append("V", target)
        if not had_forward and inner.exists_edge(source, target):
            self.journal.append("+", (source, target))
        if source != target and not had_backward and inner.exists_edge(target, source):
            self.journal.append("+", (target, source))
        self._note_inner_token()

    def delete_edge(self, source: VertexId, target: VertexId) -> None:
        inner = self._inner
        had_forward = inner.exists_edge(source, target)
        had_backward = source != target and inner.exists_edge(target, source)
        inner.delete_edge(source, target)
        if had_forward and not inner.exists_edge(source, target):
            self.journal.append("-", (source, target))
        if source != target and had_backward and not inner.exists_edge(target, source):
            self.journal.append("-", (target, source))
        self._note_inner_token()

    #: the ISSUE/paper name for edge removal
    remove_edge = delete_edge

    def delete_vertex(self, vertex: VertexId) -> None:
        # a vertex deletion removes an unbounded edge set the journal does
        # not enumerate; the next snapshot rebaselines from the inner graph
        self._inner.delete_vertex(vertex)
        self._needs_rebaseline = True
        self._note_inner_token()

    # ------------------------------------------------------------------ #
    # delegated queries
    # ------------------------------------------------------------------ #
    def get_vertices(self) -> Iterator[VertexId]:
        return self._inner.get_vertices()

    def get_neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        return self._inner.get_neighbors(vertex)

    def exists_edge(self, source: VertexId, target: VertexId) -> bool:
        return self._inner.exists_edge(source, target)

    def get_property(self, vertex: VertexId, key: str, default: Any = None) -> Any:
        return self._inner.get_property(vertex, key, default)

    def set_property(self, vertex: VertexId, key: str, value: Any) -> None:
        self._inner.set_property(vertex, key, value)
        self._note_inner_token()

    def get_edge_property(
        self, source: VertexId, target: VertexId, key: str, default: Any = None
    ) -> Any:
        return self._inner.get_edge_property(source, target, key, default)

    def has_vertex(self, vertex: VertexId) -> bool:
        return self._inner.has_vertex(vertex)

    def num_vertices(self) -> int:
        return self._inner.num_vertices()

    def num_edges(self) -> int:
        return self._inner.num_edges()

    def degree(self, vertex: VertexId) -> int:
        return self._inner.degree(vertex)

    def snapshot_edges(self) -> Iterator[tuple[VertexId, list[VertexId]]]:
        return self._inner.snapshot_edges()

    # ------------------------------------------------------------------ #
    # snapshotting: base ⊕ overlay instead of a representation walk
    # ------------------------------------------------------------------ #
    def _snapshot_token(self) -> Any:
        return (self._generation, self.journal.total, self._inner._snapshot_token())

    def _note_inner_token(self) -> None:
        self._expected_inner_token = self._inner._snapshot_token()

    def _ensure_baseline(self) -> None:
        inner_token = self._inner._snapshot_token()
        if self._base_csr is None:
            # first snapshot: the inner build already reflects any journaled
            # mutations, so the pending records are absorbed into the base
            self._set_baseline(self._inner.snapshot())
            return
        out_of_band = (
            self._expected_inner_token is not None
            and inner_token != self._expected_inner_token
        )
        if self._needs_rebaseline or out_of_band:
            if out_of_band and not self._needs_rebaseline:
                self._notes.append(
                    "note: out-of-band mutation of the journaled graph "
                    "detected; rebuilt the base snapshot"
                )
            self._set_baseline(self._inner.snapshot())
            self._generation += 1

    def _set_baseline(self, snap: "CSRGraph") -> None:
        self._rebase(snap, compacted=False)
        self._needs_rebaseline = False
        self._note_inner_token()

    def rebase_onto(self, snap: "CSRGraph", *, compacted: bool = True) -> None:
        """Adopt ``snap`` (the merged current snapshot) as the new base —
        journal compaction (or, with ``compacted=False``, a plain recovery
        rebase).  Previous-result positions stay valid: nothing about the
        delta stream changed, only where the base sits in it."""
        self._rebase(snap, compacted=compacted)
        self._csr_cache = (self._snapshot_token(), snap)

    def _rebase(self, snap: "CSRGraph", *, compacted: bool) -> None:
        self._base_csr = snap
        self.journal.rebase(snap.content_hash, compacted=compacted)
        self._overlay = None  # its records are folded into the new base

    def snapshot(self) -> "CSRGraph":
        self._ensure_baseline()
        token = self._snapshot_token()
        cached = self._csr_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        records = self.journal.records
        if not records:
            snap = self._base_csr
        else:
            from repro.graph.backend import get_backend

            if self._overlay is None:
                self._overlay = DeltaOverlay(records)
            else:
                self._overlay.extend(records[self._folded :])
            self._folded = len(records)
            snap = self._overlay.materialize(
                self._base_csr, source=self, backend=get_backend()
            )
        self._csr_cache = (token, snap)
        return snap

    def adopt_snapshot(self, csr: "CSRGraph") -> "CSRGraph":
        """Adopt a store-loaded (mmap-backed) snapshot.

        A load matching the *base* hash replaces the heap base (freeing its
        arrays); it only becomes the served snapshot when no deltas are
        pending.  Anything else follows the default adoption contract."""
        if self.journal.base_hash is not None and csr.content_hash == self.journal.base_hash:
            self._base_csr = csr
            if not self.journal.records:
                self._csr_cache = (self._snapshot_token(), csr)
            return csr
        return super().adopt_snapshot(csr)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<JournaledGraph over {self._inner!r} pending={len(self.journal)} "
            f"total={self.journal.total}>"
        )
