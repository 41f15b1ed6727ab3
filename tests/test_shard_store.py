"""Tests for the sharded snapshot format (repro.graph.shard_store).

Nothing in the program reads this format any more; the writer and reader
stay because the benchmark times them.  The contract under test:

* save → reassemble round-trips every representation's snapshot
  element-wise, and the manifest carries the monolithic content hash;
* malformed manifests and segment files fail loudly: wrong magic,
  unsupported version, truncated shard table / codec / payload, a shard
  whose header digest disagrees with the manifest, flipped payload bytes
  (content hash verification);
* the header, shard table and codec validation refuses every field that
  disagrees with another: reserved bits, shard count, table contiguity and
  coverage, edge totals, file sizes, a codec of the wrong length, and a
  segment moved between indexes or written by another save;
* a save is one snapshot write, is byte-for-byte deterministic, leaves no
  temporary file and removes the segments a wider save left; the segments
  split exactly the :func:`snapshot_payload_bytes` payload.
"""

import hashlib
import os
import struct

import pytest

from repro.exceptions import SnapshotFormatError
from repro.graph import CSRGraph, ExpandedGraph
from repro.graph.shard_store import (
    MANIFEST_HEADER_SIZE,
    MANIFEST_MAGIC,
    SHARD_HEADER_SIZE,
    SHARD_MAGIC,
    SHARD_TABLE_ENTRY_SIZE,
    load_sharded_snapshot,
    peek_manifest,
    save_sharded_snapshot,
    shard_path,
    snapshot_payload_bytes,
)
from repro.graph.snapshot_store import encode_codec, saves_in_thread
from repro.vertexcentric.parallel import partition_range

from tests.conftest import build_parity_family


def _assert_snapshots_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert list(a.offsets) == list(b.offsets)
    assert list(a.targets) == list(b.targets)
    assert a.external_ids == b.external_ids
    assert a.content_hash == b.content_hash


def _representation_snapshots():
    family = build_parity_family(
        "symmetric", seed=23, num_real=30, num_virtual=12, max_size=6, include_dedup2=True
    )
    return [(name, graph.snapshot()) for name, graph in family.items()]


# --------------------------------------------------------------------------- #
# round trips: monolithic == reassembled sharded, on every representation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,snap", _representation_snapshots())
# 64 is more shards than any of these graphs has vertices: the tail
# segments hold empty ranges and still round-trip
@pytest.mark.parametrize("num_shards", [1, 3, 64])
class TestRepresentationRoundTrip:
    def test_reassembly_matches_monolithic(self, tmp_path, name, snap, num_shards):
        manifest_path = tmp_path / f"{name}.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=num_shards)
        _assert_snapshots_equal(snap, load_sharded_snapshot(manifest_path))

    def test_manifest_carries_monolithic_identity(self, tmp_path, name, snap, num_shards):
        manifest_path = tmp_path / f"{name}.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=num_shards)
        manifest = peek_manifest(manifest_path)
        assert manifest.n == snap.n
        assert manifest.m == snap.num_edges
        # the global hash is the *monolithic* content hash: a sharded and an
        # unsharded persist of the same snapshot are the same logical object
        assert manifest.content_hash == snap.content_hash
        ranges = [(shard.lo, shard.hi) for shard in manifest.shards]
        assert ranges == partition_range(snap.n, num_shards)


# --------------------------------------------------------------------------- #
# saving
# --------------------------------------------------------------------------- #
class TestShardPlanning:
    def test_explicit_shards_equal_executor_partitions(self, tmp_path):
        snap = ExpandedGraph.from_edges([(i, i + 1) for i in range(40)]).snapshot()
        save_sharded_snapshot(snap, tmp_path / "p.csrm", shards=4)
        shards = peek_manifest(tmp_path / "p.csrm").shards
        assert [(shard.lo, shard.hi) for shard in shards] == partition_range(snap.n, 4)

    def test_empty_graph_plans_and_round_trips(self, tmp_path):
        snap = ExpandedGraph().snapshot()
        manifest_path = tmp_path / "empty.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=2)
        shards = peek_manifest(manifest_path).shards
        assert [(shard.lo, shard.hi) for shard in shards] == [(0, 0), (0, 0)]
        _assert_snapshots_equal(snap, load_sharded_snapshot(manifest_path))

    def test_invalid_plan_arguments(self, tmp_path):
        snap = ExpandedGraph.from_edges([(1, 2)]).snapshot()
        with pytest.raises(SnapshotFormatError):
            save_sharded_snapshot(snap, tmp_path / "x.csrm", shards=0)

    def test_shrinking_geometry_unlinks_leftover_segments(self, tmp_path):
        snap = ExpandedGraph.from_edges([(i, i + 1) for i in range(12)]).snapshot()
        manifest_path = tmp_path / "s.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=4)
        save_sharded_snapshot(snap, manifest_path, shards=2)
        assert shard_path(manifest_path, 1).exists()
        assert not shard_path(manifest_path, 2).exists()
        assert not shard_path(manifest_path, 3).exists()
        _assert_snapshots_equal(snap, load_sharded_snapshot(manifest_path))

    def test_sharded_save_counts_as_one_write(self, tmp_path):
        snap = ExpandedGraph.from_edges([(i, i + 1) for i in range(9)]).snapshot()
        before = saves_in_thread()
        save_sharded_snapshot(snap, tmp_path / "w.csrm", shards=3)  # 3 segments + manifest
        assert saves_in_thread() - before == 1

    def test_resave_is_byte_identical(self, tmp_path):
        snap = build_parity_family("symmetric", seed=43, num_real=20)["DEDUP-1"].snapshot()
        first, second = tmp_path / "a.csrm", tmp_path / "b.csrm"
        save_sharded_snapshot(snap, first, shards=3)
        save_sharded_snapshot(snap, second, shards=3)
        assert first.read_bytes() == second.read_bytes()
        for index in range(3):
            assert shard_path(first, index).read_bytes() == shard_path(second, index).read_bytes()

    def test_save_leaves_no_temporary_files(self, tmp_path):
        snap = ExpandedGraph.from_edges([(i, i + 1) for i in range(10)]).snapshot()
        manifest_path = tmp_path / "t.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=3)
        expected = {manifest_path.name} | {shard_path(manifest_path, i).name for i in range(3)}
        assert {path.name for path in tmp_path.iterdir()} == expected


# --------------------------------------------------------------------------- #
# the on-disk layout
# --------------------------------------------------------------------------- #
class TestLayout:
    @pytest.fixture()
    def saved(self, tmp_path):
        snap = build_parity_family("symmetric", seed=31, num_real=24)["C-DUP"].snapshot()
        manifest_path = tmp_path / "l.csrm"
        save_sharded_snapshot(snap, manifest_path, shards=3)
        return snap, manifest_path

    def test_segment_hash_covers_its_range_and_payload(self, saved):
        _, manifest_path = saved
        for shard in peek_manifest(manifest_path).shards:
            data = shard_path(manifest_path, shard.index).read_bytes()
            targets_start = SHARD_HEADER_SIZE + (shard.rows + 1) * 8
            digest = hashlib.sha256(struct.pack("<QQ", shard.lo, shard.hi))
            digest.update(data[SHARD_HEADER_SIZE:targets_start])
            digest.update(data[targets_start:])
            assert digest.digest() == shard.shard_hash
            assert data[SHARD_HEADER_SIZE - 32 : SHARD_HEADER_SIZE] == shard.shard_hash

    def test_segments_split_the_payload(self, saved):
        snap, manifest_path = saved
        assert snapshot_payload_bytes(snap) == 8 * (snap.n + 1 + snap.num_edges)
        manifest = peek_manifest(manifest_path)
        segment_bytes = 0
        for shard in manifest.shards:
            size = shard_path(manifest_path, shard.index).stat().st_size
            assert size == shard.file_size
            segment_bytes += size - SHARD_HEADER_SIZE
        # every segment repeats one boundary offset; the rest is the payload
        assert segment_bytes == snapshot_payload_bytes(snap) + 8 * (len(manifest.shards) - 1)
        # the manifest holds no arrays: header, table and codec only
        codec = encode_codec(snap.external_ids)
        assert manifest_path.stat().st_size == (
            MANIFEST_HEADER_SIZE + 3 * SHARD_TABLE_ENTRY_SIZE + len(codec)
        )


# --------------------------------------------------------------------------- #
# malformed files
# --------------------------------------------------------------------------- #
@pytest.fixture()
def sharded(tmp_path):
    snap = build_parity_family("symmetric", seed=37, num_real=20)["C-DUP"].snapshot()
    manifest_path = tmp_path / "m.csrm"
    save_sharded_snapshot(snap, manifest_path, shards=2)
    return snap, manifest_path


class TestMalformedFiles:
    def _flip(self, path, offset):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def _patch(self, path, offset, fmt, value):
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))

    def _read(self, path, offset, fmt):
        return struct.unpack_from(fmt, path.read_bytes(), offset)[0]

    def test_manifest_wrong_magic(self, sharded):
        _, manifest_path = sharded
        self._flip(manifest_path, 0)
        with pytest.raises(SnapshotFormatError, match="magic"):
            peek_manifest(manifest_path)

    def test_manifest_unsupported_version(self, sharded):
        _, manifest_path = sharded
        self._flip(manifest_path, 8)
        with pytest.raises(SnapshotFormatError, match="version"):
            peek_manifest(manifest_path)

    def test_manifest_truncated_header(self, sharded):
        _, manifest_path = sharded
        manifest_path.write_bytes(manifest_path.read_bytes()[: MANIFEST_HEADER_SIZE - 1])
        with pytest.raises(SnapshotFormatError):
            peek_manifest(manifest_path)

    def test_manifest_truncated_shard_table(self, sharded):
        _, manifest_path = sharded
        keep = MANIFEST_HEADER_SIZE + SHARD_TABLE_ENTRY_SIZE  # one of two entries
        manifest_path.write_bytes(manifest_path.read_bytes()[:keep])
        with pytest.raises(SnapshotFormatError):
            peek_manifest(manifest_path)

    def test_manifest_truncated_codec(self, sharded):
        _, manifest_path = sharded
        manifest_path.write_bytes(manifest_path.read_bytes()[:-3])
        with pytest.raises(SnapshotFormatError):
            load_sharded_snapshot(manifest_path)

    def test_missing_segment_file(self, sharded):
        _, manifest_path = sharded
        os.unlink(shard_path(manifest_path, 1))
        with pytest.raises(SnapshotFormatError):
            load_sharded_snapshot(manifest_path)

    def test_truncated_segment_file(self, sharded):
        _, manifest_path = sharded
        segment = shard_path(manifest_path, 0)
        segment.write_bytes(segment.read_bytes()[:-8])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_segment_header_digest_mismatch(self, sharded):
        _, manifest_path = sharded
        # corrupt the shard hash stored in the *segment's* header; the
        # manifest's copy no longer agrees, so the load refuses the file
        self._flip(shard_path(manifest_path, 0), SHARD_HEADER_SIZE - 1)
        with pytest.raises(SnapshotFormatError, match="shard hash"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_payload_corruption_caught_by_content_hash(self, sharded):
        snap, manifest_path = sharded
        segment = shard_path(manifest_path, 0)
        self._flip(segment, segment.stat().st_size - 1)  # last target byte
        with pytest.raises(SnapshotFormatError, match="content hash"):
            load_sharded_snapshot(manifest_path)
        # headers and sizes still agree: only the hash check sees the flip
        assert list(load_sharded_snapshot(manifest_path, verify=False).targets) != list(
            snap.targets
        )

    def test_segment_wrong_magic(self, sharded):
        _, manifest_path = sharded
        self._flip(shard_path(manifest_path, 0), 0)
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            peek_manifest(tmp_path / "absent.csrm")

    # manifest header and shard table: byte offsets from the module docstring
    def test_manifest_reserved_fields_nonzero(self, sharded):
        _, manifest_path = sharded
        self._patch(manifest_path, 10, "<H", 1)
        with pytest.raises(SnapshotFormatError, match="reserved"):
            peek_manifest(manifest_path)

    def test_manifest_implausible_shard_count(self, sharded):
        _, manifest_path = sharded
        self._patch(manifest_path, 32, "<Q", 0)
        with pytest.raises(SnapshotFormatError, match="implausible shard count"):
            peek_manifest(manifest_path)

    def test_manifest_table_not_contiguous(self, sharded):
        _, manifest_path = sharded
        second_lo = MANIFEST_HEADER_SIZE + SHARD_TABLE_ENTRY_SIZE
        self._patch(manifest_path, second_lo, "<Q", self._read(manifest_path, second_lo, "<Q") + 1)
        with pytest.raises(SnapshotFormatError, match="not contiguous"):
            peek_manifest(manifest_path)

    def test_manifest_table_short_of_n(self, sharded):
        snap, manifest_path = sharded
        self._patch(manifest_path, 16, "<Q", snap.n + 1)
        with pytest.raises(SnapshotFormatError, match="covers"):
            peek_manifest(manifest_path)

    def test_manifest_edge_counts_disagree_with_m(self, sharded):
        snap, manifest_path = sharded
        self._patch(manifest_path, 24, "<Q", snap.num_edges + 1)
        with pytest.raises(SnapshotFormatError, match="do not sum"):
            peek_manifest(manifest_path)

    def test_manifest_oversized(self, sharded):
        _, manifest_path = sharded
        manifest_path.write_bytes(manifest_path.read_bytes() + b"\0")
        with pytest.raises(SnapshotFormatError, match="oversized"):
            peek_manifest(manifest_path)

    def test_codec_vertex_count_mismatch(self, sharded):
        snap, manifest_path = sharded
        manifest = peek_manifest(manifest_path)
        short = encode_codec(snap.external_ids[:-1])
        head = bytearray(manifest_path.read_bytes()[: manifest.codec_start])
        struct.pack_into("<Q", head, 40, len(short))
        manifest_path.write_bytes(bytes(head) + short)
        with pytest.raises(SnapshotFormatError, match="codec lists"):
            load_sharded_snapshot(manifest_path, verify=False)

    # segment files
    def test_segment_unsupported_version(self, sharded):
        _, manifest_path = sharded
        self._flip(shard_path(manifest_path, 1), 8)
        with pytest.raises(SnapshotFormatError, match="version"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_segment_reserved_flags(self, sharded):
        _, manifest_path = sharded
        self._patch(shard_path(manifest_path, 0), 10, "<H", 1)
        with pytest.raises(SnapshotFormatError, match="reserved"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_oversized_segment_file(self, sharded):
        _, manifest_path = sharded
        segment = shard_path(manifest_path, 1)
        segment.write_bytes(segment.read_bytes() + bytes(8))
        with pytest.raises(SnapshotFormatError, match="oversized"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_segment_moved_to_another_index(self, sharded):
        _, manifest_path = sharded
        shard_path(manifest_path, 0).write_bytes(shard_path(manifest_path, 1).read_bytes())
        with pytest.raises(SnapshotFormatError, match="does not match its manifest entry"):
            load_sharded_snapshot(manifest_path, verify=False)

    def test_segment_from_another_save_refused_on_its_header(self, tmp_path):
        # same vertex ranges and per-shard edge counts, different targets:
        # only the per-shard hash tells the two saves' segments apart
        mine = ExpandedGraph.from_edges([(0, 1), (2, 3)], vertices=[0, 1, 2, 3]).snapshot()
        other = ExpandedGraph.from_edges([(0, 3), (2, 1)], vertices=[0, 1, 2, 3]).snapshot()
        manifest_path = tmp_path / "mine.csrm"
        save_sharded_snapshot(mine, manifest_path, shards=2)
        save_sharded_snapshot(other, tmp_path / "other.csrm", shards=2)
        segment = shard_path(tmp_path / "other.csrm", 0).read_bytes()
        shard_path(manifest_path, 0).write_bytes(segment)
        with pytest.raises(SnapshotFormatError, match="shard hash"):
            load_sharded_snapshot(manifest_path, verify=False)


def test_magic_is_stable():
    """The on-disk magics are part of the format contract — changing them
    breaks every previously persisted sharded snapshot."""
    assert MANIFEST_MAGIC == b"GGCSRMAN"
    assert SHARD_MAGIC == b"GGCSRSHD"
    assert MANIFEST_HEADER_SIZE == 80 and MANIFEST_HEADER_SIZE % 8 == 0
    assert SHARD_HEADER_SIZE == 80 and SHARD_HEADER_SIZE % 8 == 0
    assert SHARD_TABLE_ENTRY_SIZE == 56
