"""Persistent, mmap-able CSR snapshot files.

The ``offsets``/``targets`` arrays of a :class:`~repro.graph.kernel.CSRGraph`
are contiguous 64-bit buffers, which makes the snapshot trivially
serializable — and, more importantly, *memory-mappable*: a file written once
per dataset can be mapped read-only by any number of processes, so

* a process that trusts the file (:func:`load_snapshot` /
  :meth:`SnapshotStore.load`) skips extraction entirely — the cost of
  expanding the virtual layer into CSR form is paid once per dataset, not
  once per process (pool workers are exactly this case: they map the
  coordinator's snapshot file instead of rebuilding or unpickling the
  graph), and
* every mapping process shares one physical copy of the arrays through the
  page cache.

A process that *holds the live graph* and wants correctness rather than
trust uses :meth:`SnapshotStore.fetch`, which hashes the graph's own
snapshot against the file header — that validates/refreshes the cache (and
is what keeps it fresh for the trusting readers above), but builds the
in-memory snapshot first.

A fresh process holding only the *source* uses :meth:`SnapshotStore.lookup`:
a snapshot recorded with the fingerprint of what it was extracted from (a
``.src`` sidecar, :meth:`SnapshotStore.record_source`) is trusted while the
caller presents the same fingerprint and the file still verifies — that
reopen skips loading tables, extracting and snapshotting altogether.

File format (version 1)
-----------------------
All header integers are little-endian; the array sections are raw 64-bit
little-endian signed integers (the in-memory ``array('q')`` layout on every
mainstream platform).

======  ====  =====================================================
offset  size  field
======  ====  =====================================================
0       8     magic ``b"GGCSRSNP"``
8       2     format version (``u16``, currently 1)
10      2     flags (``u16``, reserved, must be 0)
12      4     reserved padding (``u32``, must be 0)
16      8     ``n`` — number of vertices (``u64``)
24      8     ``m`` — number of directed edges (``u64``)
32      8     codec section length in bytes (``u64``)
40      32    SHA-256 content hash (see below)
72      —     ``offsets`` section: ``(n + 1) * 8`` bytes
—       —     ``targets`` section: ``m * 8`` bytes
—       —     codec section: pickled ``external_ids`` list
======  ====  =====================================================

The header is 72 bytes, a multiple of 8, so both array sections are 8-byte
aligned in the file and an ``mmap`` of the whole file can be cast to ``"q"``
views with zero copying.

The **content hash** is ``sha256(n || m || offsets || targets || codec)``
(header integers in little-endian ``u64``).  It identifies the *logical
content* of the snapshot, so a file written for a graph that has since been
mutated no longer matches the graph's current hash —
:meth:`SnapshotStore.fetch` uses this to detect stale cache entries and
rebuild them.

Loading
-------
:func:`load_snapshot` (or :meth:`CSRGraph.load`) reads a file back either as

* ``mmap=True`` — zero-copy: ``offsets``/``targets`` become ``memoryview``
  slices cast to ``"q"`` over a read-only ``mmap`` of the file (the mapping
  is kept alive by the returned snapshot), or
* ``mmap=False`` — private ``array('q')`` copies.

Both paths validate magic/version/section sizes and, with ``verify=True``,
re-hash the payload to detect bit corruption.

Big-endian hosts are supported by byte-swapping on save/load; the zero-copy
mmap path silently degrades to a verified copy there (the file stays
little-endian so snapshots are portable).

Every store file (``.csr``, ``.src``, ``.csrj``, a rewritten ``.csrd``,
shard files) is installed by one writer, :func:`atomic_write`; only the
journal append (:meth:`~repro.graph.delta.DeltaJournal.sync`) grows a file in
place.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap
import os
import pickle
import re
import struct
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import SnapshotFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.api import Graph
    from repro.graph.kernel import CSRGraph

MAGIC = b"GGCSRSNP"
FORMAT_VERSION = 1
_ITEM = 8  # bytes per offsets/targets element
#: upper bound on a ``.src`` source-fingerprint sidecar (two sha256 hex
#: digests and a short label); anything larger is not ours
SOURCE_SIDECAR_MAX = 256

_LITTLE_ENDIAN = sys.byteorder == "little"

#: cumulative :func:`save_snapshot` calls in this process (tempfile and store
#: writes alike) — single-threaded tests read deltas of this to assert "at
#: most one snapshot file written per plan"; incremented under a lock
SAVE_COUNT = 0

_COUNTER_LOCK = threading.Lock()
_THREAD_COUNTERS = threading.local()


def saves_in_thread() -> int:
    """Cumulative snapshot saves *made by the current thread*.

    The per-plan ``report.snapshot_writes`` counter is a delta of this value,
    so plans running concurrently in one process (the graph service) never
    see each other's writes, while hidden per-request writes anywhere in the
    calling thread's stack are still caught.
    """
    return getattr(_THREAD_COUNTERS, "saves", 0)


def _record_save() -> None:
    """Count one logical snapshot persist."""
    global SAVE_COUNT
    with _COUNTER_LOCK:
        SAVE_COUNT += 1
    _THREAD_COUNTERS.saves = getattr(_THREAD_COUNTERS, "saves", 0) + 1


@dataclass(frozen=True)
class FixedHeader:
    """The fixed-size header of a store file format: ``layout`` opens with
    magic, version, flags and a reserved field (both must be 0), then the
    format's own fields.  ``header_name`` / ``version_name`` are what its
    errors call the header and the version."""

    layout: struct.Struct
    magic: bytes
    version: int
    header_name: str
    version_name: str

    def pack(self, *fields) -> bytes:
        return self.layout.pack(self.magic, self.version, 0, 0, *fields)

    def unpack(self, data: bytes | memoryview, source: str) -> list:
        """The format's own fields of the header at the start of ``data``,
        once its size, magic, version and reserved fields check out."""
        size = self.layout.size
        if len(data) < size:
            raise SnapshotFormatError(
                f"{source}: file too small for a {self.header_name} ({len(data)} < {size} bytes)"
            )
        magic, version, flags, reserved, *fields = self.layout.unpack(bytes(data[:size]))
        if magic != self.magic:
            raise SnapshotFormatError(f"{source}: bad magic {magic!r}, expected {self.magic!r}")
        if version != self.version:
            raise SnapshotFormatError(
                f"{source}: unsupported {self.version_name} {version} "
                f"(this build reads version {self.version})"
            )
        if flags or reserved:
            raise SnapshotFormatError(f"{source}: reserved header fields are non-zero")
        return fields


_SNAPSHOT_HEADER = FixedHeader(
    struct.Struct("<8sHHIQQQ32s"), MAGIC, FORMAT_VERSION,
    "snapshot header", "snapshot format version",
)
HEADER_SIZE = _SNAPSHOT_HEADER.layout.size  # 72 bytes, 8-aligned


@dataclass(frozen=True)
class SnapshotHeader:
    """Decoded header of a persisted snapshot file."""

    version: int
    n: int
    m: int
    codec_length: int
    content_hash: bytes

    @property
    def offsets_start(self) -> int:
        return HEADER_SIZE

    @property
    def targets_start(self) -> int:
        return HEADER_SIZE + (self.n + 1) * _ITEM

    @property
    def codec_start(self) -> int:
        return self.targets_start + self.m * _ITEM

    @property
    def file_size(self) -> int:
        return self.codec_start + self.codec_length


# --------------------------------------------------------------------------- #
# content hashing
# --------------------------------------------------------------------------- #
def _array_bytes_le(values: array) -> bytes | array | memoryview:
    """The little-endian bytes of an ``array('q')`` (or compatible view), as
    a buffer: the array itself on a little-endian host (no copy)."""
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        if not isinstance(values, array):
            # memoryview over an mmap-backed snapshot: already little-endian
            return memoryview(values).cast("B")
        values = array("q", values)
        values.byteswap()
    return values


def encode_codec(external_ids: list) -> bytes:
    """Serialize the dense-index -> external-ID table (the snapshot codec)."""
    return pickle.dumps(list(external_ids), protocol=4)


def hashed_codec(csr: "CSRGraph") -> bytes:
    """Pickle ``csr``'s codec and, unless its content hash is already known,
    derive the hash from that pickle.  The bytes are returned so that a save
    which follows writes them instead of pickling the codec again."""
    codec = encode_codec(csr.external_ids)
    if csr._content_hash is None:
        csr._content_hash = compute_content_hash(csr.offsets, csr.targets, codec)
    return codec


def decode_codec(payload: bytes) -> list:
    try:
        external_ids = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotFormatError(f"snapshot codec section is corrupt: {exc}") from None
    if not isinstance(external_ids, list):
        raise SnapshotFormatError(
            f"snapshot codec section decoded to {type(external_ids).__name__}, expected list"
        )
    return external_ids


def compute_content_hash(offsets, targets, codec_bytes: bytes) -> bytes:
    """``sha256(n || m || offsets || targets || codec)`` in file byte order."""
    n = len(offsets) - 1
    m = len(targets)
    digest = hashlib.sha256()
    digest.update(struct.pack("<QQ", n, m))
    digest.update(_array_bytes_le(offsets))
    digest.update(_array_bytes_le(targets))
    digest.update(codec_bytes)
    return digest.digest()


# --------------------------------------------------------------------------- #
# save / load
# --------------------------------------------------------------------------- #
def atomic_write(path: str | os.PathLike, *chunks) -> Path:
    """Install ``chunks`` as the whole content of ``path``: write them to a
    temp file beside it, then ``os.replace`` it over ``path``.

    The one writer of every store file.  The temp file is named per writer,
    ``<name>.tmp.<pid>.<thread id>``, so concurrent writers of one path —
    threads of one process included — never share one: each installs a
    complete file and the last rename wins.  On any failure the temp file is
    removed and the error propagates; ``path`` keeps its previous content
    (or stays absent).  Returns ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_snapshot(csr: "CSRGraph", path: str | os.PathLike, codec: bytes | None = None) -> Path:
    """Write ``csr`` to ``path`` atomically (:func:`atomic_write`).

    Returns the final path.  The written file's content hash equals
    ``csr.content_hash``, so a later :meth:`SnapshotStore.fetch` can cheaply
    decide whether the file still matches the live graph.  ``codec``: the
    :func:`hashed_codec` pickle of ``csr``, when the caller already made it.
    """
    _record_save()
    codec_bytes = hashed_codec(csr) if codec is None else codec
    header = _SNAPSHOT_HEADER.pack(csr.n, csr.num_edges, len(codec_bytes), csr._content_hash)
    return atomic_write(
        path, header, _array_bytes_le(csr.offsets), _array_bytes_le(csr.targets), codec_bytes
    )


def read_header(data: bytes | memoryview, *, source: str = "snapshot") -> SnapshotHeader:
    """Decode and validate the fixed-size header from ``data``."""
    return SnapshotHeader(FORMAT_VERSION, *_SNAPSHOT_HEADER.unpack(data, source))


def _sized_header(data: bytes | memoryview, actual: int, path: Path) -> SnapshotHeader:
    """The header at the start of ``data``, checked against the file's
    ``actual`` size."""
    header = read_header(data, source=str(path))
    if actual != header.file_size:
        raise SnapshotFormatError(
            f"{path}: truncated or oversized snapshot "
            f"(header implies {header.file_size} bytes, file has {actual})"
        )
    return header


def peek_header(path: str | os.PathLike) -> SnapshotHeader:
    """Read just the header of a snapshot file (for staleness checks)."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            head = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from None
    return _sized_header(head, path.stat().st_size, path)


def load_snapshot(
    path: str | os.PathLike,
    *,
    mmap: bool = True,
    verify: bool = True,
    source: "Graph | None" = None,
) -> "CSRGraph":
    """Load a snapshot file written by :func:`save_snapshot`.

    With ``mmap=True`` the returned snapshot's ``offsets``/``targets`` are
    zero-copy ``"q"``-cast memoryviews over a read-only mapping of the file;
    with ``mmap=False`` they are private ``array('q')`` copies.  ``verify``
    re-hashes the payload against the stored content hash.
    """
    from repro.graph.kernel import CSRGraph

    path = Path(path)
    use_mmap = mmap and _LITTLE_ENDIAN
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from None

    with handle:
        if use_mmap:
            try:
                mapping = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            except (ValueError, OSError) as exc:  # e.g. empty file
                raise SnapshotFormatError(f"cannot mmap snapshot {path}: {exc}") from None
            data: bytes | memoryview = memoryview(mapping)
        else:
            mapping = None
            data = handle.read()

    header = _sized_header(data, len(data), path)
    data = memoryview(data)
    offsets = data[header.offsets_start : header.targets_start].cast("q")
    targets = data[header.targets_start : header.codec_start].cast("q")
    codec_bytes = bytes(data[header.codec_start : header.file_size])
    if verify and compute_content_hash(offsets, targets, codec_bytes) != header.content_hash:
        raise SnapshotFormatError(f"{path}: content hash mismatch — the snapshot file is corrupt")

    external_ids = decode_codec(codec_bytes)
    if len(external_ids) != header.n:
        raise SnapshotFormatError(
            f"{path}: codec lists {len(external_ids)} vertices, header says {header.n}"
        )

    if not use_mmap:  # private copies
        offsets, targets = array("q", offsets.tobytes()), array("q", targets.tobytes())
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            offsets.byteswap()
            targets.byteswap()
    snap = CSRGraph(offsets, targets, external_ids, source=source)
    snap._buffer_owner = mapping  # keep the mapping (if any) alive with the arrays
    snap._content_hash = header.content_hash
    return snap


def holds(path: str | os.PathLike, content_hash: bytes) -> bool:
    """Whether the snapshot file at ``path`` already holds ``content_hash``:
    its header says so and its size fits the header.  A missing or
    unreadable file does not."""
    try:
        return peek_header(path).content_hash == content_hash
    except (OSError, SnapshotFormatError):
        return False


def ensure_saved(csr: "CSRGraph", path: str | os.PathLike) -> Path:
    """Make sure ``path`` holds exactly ``csr`` (content-hash checked).

    A readable file whose stored hash matches is left untouched; anything
    else (missing, unreadable, stale) is atomically rewritten.
    """
    if holds(path, csr.content_hash):
        return Path(path)
    return save_snapshot(csr, path)


# --------------------------------------------------------------------------- #
# the keyed on-disk store
# --------------------------------------------------------------------------- #
_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(key: str) -> str:
    """Filesystem-safe cache file stem for an arbitrary key string."""
    cleaned = _SLUG_RE.sub("_", key).strip("_") or "snapshot"
    if len(cleaned) > 80:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        cleaned = f"{cleaned[:60]}_{digest}"
    return cleaned


class SnapshotStore:
    """A directory of persisted CSR snapshots, keyed by dataset identity.

    ``fetch(graph, key)`` is the cache entry point for a live graph: it takes
    the graph's (in-process cached) snapshot, compares its content hash with
    the stored file's header, and

    * on a match, returns the **mmap-backed** load of the file — all callers
      in all processes share one physical copy through the page cache;
    * on a miss or a stale hash (the graph was mutated since the file was
      written), rewrites the file and returns the fresh snapshot.

    ``load(key)`` trusts the file without consulting a live graph — that is
    the pay-once-per-dataset path used by worker processes.  ``lookup(key,
    fingerprint)`` is the *conditional* trust of a warm start: the verified
    mmap load, while the ``.src`` sidecar pins this ``.csr``'s content hash
    and that source fingerprint.

    Only the monolithic ``.csr`` (plus its ``.csrd`` / ``.src`` sidecars) is
    ever read; any other file under a key's stem — a ``.csrm`` manifest
    included — is ignored, and the key is rebuilt as a ``.csr``.
    """

    #: journal compaction threshold: a journaled graph's pending delta
    #: records are folded into a fresh base snapshot once they exceed this
    #: fraction of the base edge count (read at every journaled fetch)
    compact_fraction = 0.25

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: cumulative outcome counts of :meth:`fetch` and successful
        #: :meth:`lookup` calls — ``"source-hit"`` (trusted reopen), ``"hit"``
        #: (file matched; the mmap load was returned), ``"stale"`` (file
        #: existed but was unreadable or its hash no longer matched;
        #: rewritten), ``"miss"`` (no file; written), and the journaled
        #: ``"base+delta"`` / ``"compact"``.  Mutated under a lock, so totals
        #: stay exact under concurrent plans; one call's own outcome is what
        #: :meth:`fetch` returns
        self.counters: dict[str, int] = {
            "source-hit": 0,
            "hit": 0,
            "stale": 0,
            "miss": 0,
            "base+delta": 0,
            "compact": 0,
        }
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{_slug(key)}.csr"

    def delta_path_for(self, key: str) -> Path:
        """Where a journaled graph's delta sidecar for ``key`` lives."""
        return self.directory / f"{_slug(key)}.csrd"

    def merged_path_for(self, key: str) -> Path:
        """Where pool workers read a journaled ``key``'s merged snapshot
        (base plus ``.csrd``): the ``.csr`` stays the journal's base."""
        return self.directory / f"{_slug(key)}.csrj"

    def source_path_for(self, key: str) -> Path:
        """Where the source-fingerprint sidecar of ``key``'s ``.csr`` lives."""
        return self.directory / f"{_slug(key)}.src"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def save(self, csr: "CSRGraph", key: str) -> Path:
        return save_snapshot(csr, self.path_for(key))

    def load(self, key: str, *, mmap: bool = True, verify: bool = True) -> "CSRGraph":
        return load_snapshot(self.path_for(key), mmap=mmap, verify=verify)

    def lookup(self, key: str, fingerprint: str) -> "tuple[CSRGraph, str] | None":
        """Trusted reopen: ``key``'s snapshot as a **verified** mmap load plus
        the label it was recorded with — if, and only if, its sidecar names
        this source ``fingerprint`` and the content hash of the ``.csr``
        beside it.  Anything else (no or unreadable sidecar, a ``.csr`` that
        is missing, malformed or fails verification) is ``None``: the caller
        falls into :meth:`fetch`, which rebuilds and rewrites as always.
        """
        try:
            raw = self.source_path_for(key).read_bytes()
            if len(raw) > SOURCE_SIDECAR_MAX:
                return None
            recorded = json.loads(raw)
            if recorded["source"] != fingerprint:
                return None
            csr = load_snapshot(self.path_for(key), mmap=True, verify=True)
            if csr.content_hash.hex() != recorded["content"]:
                return None
            label = str(recorded["label"])
        except (OSError, ValueError, KeyError, TypeError, SnapshotFormatError):
            return None
        self._record("source-hit")
        return csr, label

    def record_source(self, key: str, fingerprint: str, csr: "CSRGraph", label: str) -> None:
        """Pin ``key``'s persisted ``.csr`` (which must hold ``csr``) to the
        source ``fingerprint`` it was extracted from, for a later
        :meth:`lookup`.  Atomic; an identical sidecar is left alone."""
        payload = json.dumps(
            {"source": fingerprint, "content": csr.content_hash.hex(), "label": label}
        ).encode("utf-8")
        path = self.source_path_for(key)
        try:
            if path.read_bytes() == payload:
                return
        except OSError:
            pass
        atomic_write(path, payload)

    def fetch(
        self, graph: "Graph", key: str, codec: bytes | None = None
    ) -> "tuple[CSRGraph, str]":
        """The current snapshot of ``graph``, backed by the store, plus this
        call's outcome: ``(snapshot, "hit" | "stale" | "miss")`` — or, for a
        :class:`~repro.graph.delta.JournaledGraph` with pending deltas,
        ``"base+delta"`` / ``"compact"`` (see :meth:`_fetch_journaled`).

        Correctness-first caching: this *builds* (or reuses the in-process
        cache of) the graph's snapshot to compare content hashes, so it never
        avoids the build itself — use :meth:`lookup` (trusted while the
        source fingerprint matches) or :meth:`load` (trusted outright) when
        there is no live graph.  A stale or corrupt file is rewritten;
        on a hash match the mmap-backed load is adopted as the graph's cached
        snapshot (shared physical memory, and the heap copy can be freed).
        The returned snapshot keeps ``graph`` as its property source.
        ``codec``: the :func:`hashed_codec` pickle of ``graph.snapshot()``,
        when the caller already made one; a save writes it.
        """
        snap = graph.snapshot()
        from repro.graph.delta import JournaledGraph

        if isinstance(graph, JournaledGraph) and graph.journal.records:
            return self._fetch_journaled(graph, snap, key, codec)
        path = self.path_for(key)
        if isinstance(graph, JournaledGraph):
            # no pending deltas: the merged snapshot *is* the base, so the
            # monolithic logic below applies and any delta sidecar is spent
            self.delta_path_for(key).unlink(missing_ok=True)
        existed = path.exists()
        if codec is None and snap._content_hash is None:
            codec = hashed_codec(snap)  # the hash below and a save share it
        if holds(path, snap.content_hash):
            try:
                # verified: a payload that no longer hashes to its own
                # header is rewritten below, not adopted
                loaded = load_snapshot(path, verify=True, source=graph)
                self._record("hit")
                return graph.adopt_snapshot(loaded), "hit"
            except SnapshotFormatError:
                pass  # corrupt payload: fall through and rewrite it
        save_snapshot(snap, path, codec)
        outcome = "stale" if existed else "miss"
        self._record(outcome)
        return snap, outcome

    def _fetch_journaled(self, graph, snap: "CSRGraph", key: str, codec) -> "tuple[CSRGraph, str]":
        """:meth:`fetch` for a :class:`~repro.graph.delta.JournaledGraph`
        with pending delta records.

        Instead of declaring the persisted base stale and rewriting the whole
        snapshot, the base file stays put and the pending records are synced
        to the ``.csrd`` sidecar with ``O(new records)`` I/O — outcome
        ``"base+delta"`` (the served snapshot is the overlay merge ``graph``
        already holds; on a valid on-disk base its heap arrays are swapped
        for the mmap load).  Once the journal outgrows
        ``compact_fraction × base edges``, the merged snapshot is persisted
        as a fresh base and the journal rebased onto it — outcome
        ``"compact"``.  A corrupt sidecar falls back to a full rebuild
        (outcome ``"stale"``) and leaves a provenance note on the graph.
        """
        path = self.path_for(key)
        delta_path = self.delta_path_for(key)
        journal = graph.journal
        base = graph.base_snapshot

        threshold = max(1, int(self.compact_fraction * base.num_edges))
        if len(journal.records) > threshold:
            save_snapshot(snap, path, codec)
            delta_path.unlink(missing_ok=True)
            self.merged_path_for(key).unlink(missing_ok=True)
            graph.rebase_onto(snap)
            self._record("compact")
            return snap, "compact"

        base_on_disk = holds(path, base.content_hash)
        if not base_on_disk:  # missing, unreadable or stale base: rewrite it
            save_snapshot(base, path)
        try:
            journal.sync(delta_path)
        except SnapshotFormatError:
            # corrupt sidecar: fall back to a clean full rebuild — persist
            # the merged snapshot as the new base and rebase onto it
            delta_path.unlink(missing_ok=True)
            self.merged_path_for(key).unlink(missing_ok=True)
            save_snapshot(snap, path, codec)
            graph.rebase_onto(snap, compacted=False)
            graph.add_note(
                "note: delta journal file was corrupt; rebuilt the base snapshot"
            )
            self._record("stale")
            return snap, "stale"
        if base_on_disk and base._buffer_owner is None:
            loaded = load_snapshot(path, verify=False, source=graph)
            graph.adopt_snapshot(loaded)
        self._record("base+delta")
        return snap, "base+delta"

    def _record(self, outcome: str) -> None:
        with self._lock:
            self.counters[outcome] += 1
