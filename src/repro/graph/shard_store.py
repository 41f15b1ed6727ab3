"""Sharded CSR snapshot files: per-vertex-range segment files plus a manifest.

Nothing in the program reads or writes this format: the snapshot store
persists monolithic ``.csr`` files only (:mod:`repro.graph.snapshot_store`)
and ignores a ``.csrm`` manifest it finds.  The module stays only because
the benchmark (``bench/layers.py``) still times this writer and reader
(``store.shard_write_s``, ``store.shard_load_s``) and reads
:func:`snapshot_payload_bytes`; it goes with the bench change that drops
those metrics (ROADMAP item 6).

A sharded snapshot is one **manifest** file plus ``num_shards`` **segment**
files.  Shard ``k`` owns the contiguous vertex range ``[lo_k, hi_k)`` and
stores only that range's CSR rows: ``hi - lo + 1`` offsets rebased to 0 and
those rows' edges as **global** dense vertex indexes.

Manifest layout (version 1; all integers little-endian)
-------------------------------------------------------
======  ====  =====================================================
offset  size  field
======  ====  =====================================================
0       8     magic ``b"GGCSRMAN"``
8       2     format version (``u16``, currently 1)
10      2     flags (``u16``, reserved, must be 0)
12      4     reserved padding (``u32``, must be 0)
16      8     ``n`` — number of vertices (``u64``)
24      8     ``m`` — number of directed edges (``u64``)
32      8     ``num_shards`` (``u64``)
40      8     codec section length in bytes (``u64``)
48      32    global SHA-256 content hash (see below)
80      —     shard table: ``num_shards`` × 56-byte records
              ``(lo u64, hi u64, edges u64, shard sha-256)``
—       —     codec section: pickled ``external_ids`` list
======  ====  =====================================================

The **global content hash equals the monolithic format's**
(``sha256(n || m || offsets || targets || codec)`` of the full graph).  Each
segment file carries its own header (magic ``b"GGCSRSHD"``, mirrored
range/edge counts, global ``n``) plus a per-shard hash
``sha256(lo || hi || local offsets || targets)`` recorded in both the
segment header and the manifest table, so a segment written by another save
is refused on its header alone.  Segment files hold no codec.
"""

from __future__ import annotations

import hashlib
import os
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import SnapshotFormatError
from repro.graph.kernel import CSRGraph
from repro.graph.snapshot_store import (
    _LITTLE_ENDIAN,
    _array_bytes_le,
    _record_save,
    compute_content_hash,
    decode_codec,
    encode_codec,
)

MANIFEST_MAGIC = b"GGCSRMAN"
SHARD_MAGIC = b"GGCSRSHD"
SHARD_FORMAT_VERSION = 1
_MANIFEST_HEADER = struct.Struct("<8sHHIQQQQ32s")
MANIFEST_HEADER_SIZE = _MANIFEST_HEADER.size  # 80 bytes, 8-aligned
_SHARD_TABLE_ENTRY = struct.Struct("<QQQ32s")
SHARD_TABLE_ENTRY_SIZE = _SHARD_TABLE_ENTRY.size  # 56 bytes
_SHARD_HEADER = struct.Struct("<8sHHIQQQQ32s")
SHARD_HEADER_SIZE = _SHARD_HEADER.size  # 80 bytes, 8-aligned
_ITEM = 8  # bytes per offsets/targets element


def shard_path(manifest_path: str | os.PathLike, index: int) -> Path:
    """The segment file of shard ``index``, derived from the manifest path."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(manifest_path.name + f".shard{index:03d}")


def snapshot_payload_bytes(csr: "CSRGraph") -> int:
    """The snapshot's array payload in bytes: ``8 * (n + 1 + m)``."""
    return (csr.n + 1 + csr.num_edges) * _ITEM


@dataclass(frozen=True)
class ShardInfo:
    """One shard table record of a manifest."""

    index: int
    lo: int
    hi: int
    edges: int
    shard_hash: bytes

    @property
    def rows(self) -> int:
        return self.hi - self.lo

    @property
    def file_size(self) -> int:
        return SHARD_HEADER_SIZE + (self.rows + 1) * _ITEM + self.edges * _ITEM


@dataclass(frozen=True)
class ShardManifest:
    """Decoded header + shard table of a sharded snapshot manifest."""

    path: Path
    n: int
    m: int
    codec_length: int
    content_hash: bytes
    shards: tuple[ShardInfo, ...]

    @property
    def codec_start(self) -> int:
        return MANIFEST_HEADER_SIZE + len(self.shards) * SHARD_TABLE_ENTRY_SIZE

    @property
    def file_size(self) -> int:
        return self.codec_start + self.codec_length


def _shard_hash(lo: int, hi: int, offsets_bytes: bytes, targets_bytes: bytes) -> bytes:
    digest = hashlib.sha256()
    digest.update(struct.pack("<QQ", lo, hi))
    digest.update(offsets_bytes)
    digest.update(targets_bytes)
    return digest.digest()


def _write_atomically(path: Path, *chunks: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()


# --------------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------------- #
def save_sharded_snapshot(
    csr: "CSRGraph", manifest_path: str | os.PathLike, *, shards: int
) -> Path:
    """Write ``csr`` as ``shards`` contiguous vertex-range segments plus a
    manifest at ``manifest_path``.

    Segment files are written first (write-to-temp + rename each), the
    manifest last — a crash mid-save leaves the previous manifest (or none)
    in place.  Segment files a previous, wider save left behind are removed.
    """
    from repro.vertexcentric.parallel import partition_range

    if shards < 1:
        raise SnapshotFormatError(f"shards must be at least 1 (got {shards})")
    manifest_path = Path(manifest_path)
    _record_save()
    offsets = csr.offsets
    targets = csr.targets
    table: list[ShardInfo] = []
    for index, (lo, hi) in enumerate(partition_range(csr.n, shards)):
        edge_lo, edge_hi = offsets[lo], offsets[hi]
        local_offsets = array("q", [offsets[v] - edge_lo for v in range(lo, hi + 1)])
        offsets_bytes = _array_bytes_le(local_offsets)
        targets_bytes = _array_bytes_le(targets[edge_lo:edge_hi])
        digest = _shard_hash(lo, hi, offsets_bytes, targets_bytes)
        info = ShardInfo(index, lo, hi, edge_hi - edge_lo, digest)
        table.append(info)
        header = _SHARD_HEADER.pack(
            SHARD_MAGIC, SHARD_FORMAT_VERSION, 0, index, lo, hi, info.edges, csr.n, digest
        )
        _write_atomically(shard_path(manifest_path, index), header, offsets_bytes, targets_bytes)

    codec_bytes = encode_codec(csr.external_ids)
    header = _MANIFEST_HEADER.pack(
        MANIFEST_MAGIC,
        SHARD_FORMAT_VERSION,
        0,
        0,
        csr.n,
        csr.num_edges,
        len(table),
        len(codec_bytes),
        csr.content_hash,
    )
    entries = b"".join(
        _SHARD_TABLE_ENTRY.pack(info.lo, info.hi, info.edges, info.shard_hash) for info in table
    )
    _write_atomically(manifest_path, header, entries, codec_bytes)

    index = len(table)
    while shard_path(manifest_path, index).exists():
        shard_path(manifest_path, index).unlink()
        index += 1
    return manifest_path


# --------------------------------------------------------------------------- #
# read
# --------------------------------------------------------------------------- #
def peek_manifest(path: str | os.PathLike) -> ShardManifest:
    """Decode and validate a manifest's header + shard table (no codec, no
    segment files)."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            head = handle.read(MANIFEST_HEADER_SIZE)
            if len(head) < MANIFEST_HEADER_SIZE:
                raise SnapshotFormatError(
                    f"{path}: file too small for a shard manifest header "
                    f"({len(head)} < {MANIFEST_HEADER_SIZE} bytes)"
                )
            magic, version, flags, reserved, n, m, num_shards, codec_length, content_hash = (
                _MANIFEST_HEADER.unpack(head)
            )
            if magic != MANIFEST_MAGIC:
                raise SnapshotFormatError(
                    f"{path}: bad magic {magic!r}, expected {MANIFEST_MAGIC!r}"
                )
            if version != SHARD_FORMAT_VERSION:
                raise SnapshotFormatError(
                    f"{path}: unsupported shard manifest version {version} "
                    f"(this build reads version {SHARD_FORMAT_VERSION})"
                )
            if flags or reserved:
                raise SnapshotFormatError(f"{path}: reserved header fields are non-zero")
            if num_shards < 1 or num_shards > 1_000_000:
                raise SnapshotFormatError(f"{path}: implausible shard count {num_shards}")
            table_bytes = handle.read(num_shards * SHARD_TABLE_ENTRY_SIZE)
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read shard manifest {path}: {exc}") from None
    if len(table_bytes) != num_shards * SHARD_TABLE_ENTRY_SIZE:
        raise SnapshotFormatError(f"{path}: truncated shard table")
    shards = tuple(
        ShardInfo(index, *entry)
        for index, entry in enumerate(_SHARD_TABLE_ENTRY.iter_unpack(table_bytes))
    )
    expected_lo = 0
    for shard in shards:
        if shard.lo != expected_lo or shard.hi < shard.lo:
            raise SnapshotFormatError(
                f"{path}: shard table is not contiguous ascending over [0, {n}) "
                f"(found range ({shard.lo}, {shard.hi}), expected lo {expected_lo})"
            )
        expected_lo = shard.hi
    if expected_lo != n:
        raise SnapshotFormatError(
            f"{path}: shard table covers [0, {expected_lo}), header says n={n}"
        )
    if sum(shard.edges for shard in shards) != m:
        raise SnapshotFormatError(f"{path}: shard edge counts do not sum to the header's m={m}")
    manifest = ShardManifest(path, n, m, codec_length, content_hash, shards)
    actual = path.stat().st_size
    if actual != manifest.file_size:
        raise SnapshotFormatError(
            f"{path}: truncated or oversized manifest "
            f"(header implies {manifest.file_size} bytes, file has {actual})"
        )
    return manifest


def _read_segment(manifest: ShardManifest, shard: ShardInfo) -> tuple[array, array]:
    """One segment file's local offsets and targets, its header checked
    against the manifest entry."""
    path = shard_path(manifest.path, shard.index)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot shard {path}: {exc}") from None
    if len(data) < SHARD_HEADER_SIZE:
        raise SnapshotFormatError(
            f"{path}: file too small for a shard header "
            f"({len(data)} < {SHARD_HEADER_SIZE} bytes)"
        )
    magic, version, flags, index, lo, hi, edges, n, digest = _SHARD_HEADER.unpack_from(data)
    if magic != SHARD_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}, expected {SHARD_MAGIC!r}")
    if version != SHARD_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path}: unsupported shard format version {version} "
            f"(this build reads version {SHARD_FORMAT_VERSION})"
        )
    if flags:
        raise SnapshotFormatError(f"{path}: reserved header fields are non-zero")
    if (index, lo, hi, edges, n) != (shard.index, shard.lo, shard.hi, shard.edges, manifest.n):
        raise SnapshotFormatError(
            f"{path}: shard header (index={index}, range=({lo}, {hi}), edges={edges}, "
            f"n={n}) does not match its manifest entry"
        )
    if digest != shard.shard_hash:
        raise SnapshotFormatError(f"{path}: shard hash does not match the manifest")
    if len(data) != shard.file_size:
        raise SnapshotFormatError(
            f"{path}: truncated or oversized shard "
            f"(manifest implies {shard.file_size} bytes, file has {len(data)})"
        )
    targets_start = SHARD_HEADER_SIZE + (shard.rows + 1) * _ITEM
    local_offsets = array("q", data[SHARD_HEADER_SIZE:targets_start])
    local_targets = array("q", data[targets_start:])
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        local_offsets.byteswap()
        local_targets.byteswap()
    return local_offsets, local_targets


def load_sharded_snapshot(manifest_path: str | os.PathLike, *, verify: bool = True) -> "CSRGraph":
    """Reassemble the full snapshot from a sharded one, as private heap
    arrays.  With ``verify=True`` the **global** content hash is recomputed
    over the assembled arrays + codec and compared against the manifest's,
    like the monolithic loader's corruption check."""
    manifest = peek_manifest(manifest_path)
    with manifest.path.open("rb") as handle:
        handle.seek(manifest.codec_start)
        codec_bytes = handle.read(manifest.codec_length)
    if len(codec_bytes) != manifest.codec_length:
        raise SnapshotFormatError(f"{manifest.path}: truncated codec section")
    external_ids = decode_codec(codec_bytes)
    if len(external_ids) != manifest.n:
        raise SnapshotFormatError(
            f"{manifest.path}: codec lists {len(external_ids)} vertices, "
            f"header says {manifest.n}"
        )
    offsets = array("q", [0])
    targets = array("q")
    for shard in manifest.shards:
        local_offsets, local_targets = _read_segment(manifest, shard)
        edge_base = len(targets)
        offsets.extend(value + edge_base for value in local_offsets[1:])
        targets.extend(local_targets)
    if verify and compute_content_hash(offsets, targets, codec_bytes) != manifest.content_hash:
        raise SnapshotFormatError(
            f"{manifest_path}: content hash mismatch — the sharded snapshot is corrupt"
        )
    snap = CSRGraph(offsets, targets, external_ids)
    snap._content_hash = manifest.content_hash
    return snap
