"""Tests for the persistent CSR snapshot format (repro.graph.snapshot_store).

The contract under test:

* save → load round-trips every representation's snapshot element-wise
  (offsets, targets, codec) for both the zero-copy mmap path and the
  array-copy path, on hand-built and random synthetic graphs;
* malformed files fail loudly: wrong magic, unsupported version, truncated
  header/arrays/codec, flipped payload bytes (content-hash verification),
  corrupt codec section;
* :class:`SnapshotStore` detects a stale file after the source graph mutates
  (content hash mismatch) and rebuilds it, and otherwise reuses the file
  without rewriting; a sharded ``.csrm`` set left under a key is never read.
"""

import os

import pytest

from repro.datasets.synthetic import generate_condensed
from repro.exceptions import SnapshotFormatError
from repro.graph import CSRGraph, ExpandedGraph, SnapshotStore, logical_edge_set
from repro.graph.kernel import bfs_distances_kernel
from repro.graph.shard_store import save_sharded_snapshot
from repro.graph.snapshot_store import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    ensure_saved,
    load_snapshot,
    peek_header,
    save_snapshot,
)

from tests.conftest import build_parity_family


def _assert_snapshots_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert list(a.offsets) == list(b.offsets)
    assert list(a.targets) == list(b.targets)
    assert a.external_ids == b.external_ids
    assert a.content_hash == b.content_hash


def _representation_snapshots():
    """(name, snapshot) pairs for every representation family."""
    family = build_parity_family(
        "symmetric", seed=17, num_real=25, num_virtual=10, max_size=6, include_dedup2=True
    )
    return [(name, graph.snapshot()) for name, graph in family.items()]


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,snap", _representation_snapshots())
@pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "copy"])
class TestRepresentationRoundTrip:
    def test_round_trip_element_wise(self, tmp_path, name, snap, use_mmap):
        path = tmp_path / f"{name}.csr"
        snap.save(path)
        loaded = CSRGraph.load(path, mmap=use_mmap)
        _assert_snapshots_equal(snap, loaded)

    def test_codec_round_trips(self, tmp_path, name, snap, use_mmap):
        path = tmp_path / f"{name}.csr"
        snap.save(path)
        loaded = CSRGraph.load(path, mmap=use_mmap)
        for vertex in snap.external_ids:
            assert loaded.external(loaded.index(vertex)) == vertex
        values = list(range(loaded.n))
        assert loaded.decode(values) == snap.decode(values)

    def test_kernels_run_on_loaded_snapshot(self, tmp_path, name, snap, use_mmap):
        path = tmp_path / f"{name}.csr"
        snap.save(path)
        loaded = CSRGraph.load(path, mmap=use_mmap)
        if loaded.n == 0:
            pytest.skip("empty graph")
        assert bfs_distances_kernel(loaded, 0) == bfs_distances_kernel(snap, 0)
        assert loaded.degrees() == snap.degrees()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "copy"])
def test_random_synthetic_round_trip(tmp_path, seed, use_mmap):
    """Property test: random condensed graphs survive save/load bit-for-bit."""
    from repro.dedup.expand import expand

    condensed = generate_condensed(
        num_real=60, num_virtual=40, mean_size=5, std_size=2, seed=seed
    )
    graph = expand(condensed)
    snap = graph.snapshot()
    path = tmp_path / f"synthetic_{seed}.csr"
    save_snapshot(snap, path)
    loaded = load_snapshot(path, mmap=use_mmap)
    _assert_snapshots_equal(snap, loaded)
    decoded_edges = {
        (loaded.external(u), loaded.external(v)) for u, v in loaded.iter_edges()
    }
    assert decoded_edges == logical_edge_set(graph)


def test_empty_graph_round_trip(tmp_path):
    snap = ExpandedGraph().snapshot()
    path = tmp_path / "empty.csr"
    snap.save(path)
    for use_mmap in (True, False):
        loaded = CSRGraph.load(path, mmap=use_mmap)
        assert loaded.n == 0
        assert loaded.num_edges == 0
        assert list(loaded.offsets) == [0]


def test_mmap_load_is_zero_copy_view(tmp_path):
    graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
    snap = graph.snapshot()
    path = tmp_path / "g.csr"
    snap.save(path)
    loaded = CSRGraph.load(path, mmap=True)
    # zero-copy: the arrays are memoryviews over the file mapping
    assert isinstance(loaded.offsets, memoryview)
    assert isinstance(loaded.targets, memoryview)
    assert loaded._buffer_owner is not None
    copied = CSRGraph.load(path, mmap=False)
    assert not isinstance(copied.offsets, memoryview)


def test_content_hash_identifies_structure():
    a = ExpandedGraph.from_edges([(1, 2), (2, 3)])
    b = ExpandedGraph.from_edges([(1, 2), (2, 3)])
    assert a.snapshot().content_hash == b.snapshot().content_hash
    b.add_edge(3, 1)
    assert a.snapshot().content_hash != b.snapshot().content_hash


# --------------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------------- #
@pytest.fixture
def saved(tmp_path):
    graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    snap = graph.snapshot()
    path = tmp_path / "snap.csr"
    snap.save(path)
    return graph, snap, path


class TestMalformedFiles:
    def test_wrong_magic(self, saved):
        _, _, path = saved
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTACSRF"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            load_snapshot(path)

    def test_unsupported_version(self, saved):
        _, _, path = saved
        data = bytearray(path.read_bytes())
        data[8] = FORMAT_VERSION + 1  # little-endian u16 at offset 8
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(path)

    def test_truncated_header(self, saved):
        _, _, path = saved
        path.write_bytes(path.read_bytes()[: HEADER_SIZE - 10])
        with pytest.raises(SnapshotFormatError, match="too small"):
            load_snapshot(path)
        with pytest.raises(SnapshotFormatError):
            peek_header(path)

    @pytest.mark.parametrize("keep", ["arrays", "codec"])
    def test_truncated_sections(self, saved, keep):
        _, snap, path = saved
        data = path.read_bytes()
        cut = (HEADER_SIZE + (snap.n + 1) * 8 - 4) if keep == "arrays" else (len(data) - 3)
        path.write_bytes(data[:cut])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(path)
        with pytest.raises(SnapshotFormatError, match="truncated"):
            peek_header(path)

    def test_trailing_garbage_rejected(self, saved):
        _, _, path = saved
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(SnapshotFormatError, match="truncated or oversized"):
            load_snapshot(path)

    def test_payload_corruption_caught_by_hash(self, saved):
        _, snap, path = saved
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + (snap.n + 1) * 8] ^= 0xFF  # flip a byte in targets
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="content hash mismatch"):
            load_snapshot(path, verify=True)
        # without verification the flip goes undetected (documented trade-off)
        load_snapshot(path, verify=False)

    def test_corrupt_codec_section(self, saved):
        _, snap, path = saved
        data = bytearray(path.read_bytes())
        codec_start = HEADER_SIZE + (snap.n + 1) * 8 + snap.num_edges * 8
        for i in range(codec_start, len(data)):
            data[i] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path, verify=False)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            load_snapshot(tmp_path / "nope.csr")
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            peek_header(tmp_path / "nope.csr")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csr"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)


# --------------------------------------------------------------------------- #
# the keyed store: caching and stale-hash rebuild
# --------------------------------------------------------------------------- #
class TestSnapshotStore:
    def test_build_then_reuse(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        first = store.fetch(graph, "toy")[0]
        assert store.contains("toy")
        path = store.path_for("toy")
        stamp = path.stat().st_mtime_ns
        # unchanged graph: file untouched, mmap-backed load comes back and is
        # adopted as the graph's cached snapshot
        second = store.fetch(graph, "toy")[0]
        assert path.stat().st_mtime_ns == stamp
        _assert_snapshots_equal(first, second)
        assert second._buffer_owner is not None
        assert graph.snapshot() is second

    def test_stale_hash_rebuild_after_mutation(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])
        store.fetch(graph, "toy")[0]
        stale_hash = peek_header(store.path_for("toy")).content_hash
        graph.add_edge(3, 1)  # structural mutation: the file is now stale
        rebuilt = store.fetch(graph, "toy")[0]
        fresh_hash = peek_header(store.path_for("toy")).content_hash
        assert fresh_hash != stale_hash
        assert fresh_hash == rebuilt.content_hash
        assert rebuilt.index(1) in rebuilt.neighbor_set(rebuilt.index(3))
        # the trusting load sees the rebuilt content
        assert store.load("toy").content_hash == fresh_hash

    def test_corrupt_cache_file_is_rewritten(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2)])
        store.fetch(graph, "toy")[0]
        store.path_for("toy").write_bytes(b"garbage")
        snap = store.fetch(graph, "toy")[0]
        assert peek_header(store.path_for("toy")).content_hash == snap.content_hash

    def test_keys_are_slugged_safely(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2)])
        key = "weird key/with:odd*chars?" + "x" * 200
        store.save(graph.snapshot(), key)
        assert store.contains(key)
        path = store.path_for(key)
        assert path.parent == store.directory
        assert os.sep not in path.name

    def test_load_missing_key_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        with pytest.raises(SnapshotFormatError):
            store.load("absent")

    def test_ensure_saved_idempotent_and_repairing(self, tmp_path):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 1)])
        snap = graph.snapshot()
        path = tmp_path / "s.csr"
        ensure_saved(snap, path)
        stamp = path.stat().st_mtime_ns
        ensure_saved(snap, path)  # matching hash: no rewrite
        assert path.stat().st_mtime_ns == stamp
        path.write_bytes(b"junk")
        ensure_saved(snap, path)  # unreadable: rewritten
        _assert_snapshots_equal(snap, load_snapshot(path))

    def test_a_leftover_manifest_is_not_a_snapshot(self, tmp_path):
        """A sharded set under the key is neither contained nor read: the
        first fetch misses and writes the ``.csr``, the second hits it."""
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        manifest = store.path_for("toy").with_suffix(".csrm")
        save_sharded_snapshot(graph.snapshot(), manifest, shards=2)
        leftover = manifest.read_bytes()
        assert not store.contains("toy")
        first, outcome = store.fetch(graph, "toy")
        assert outcome == "miss"
        assert peek_header(store.path_for("toy")).content_hash == first.content_hash
        again, outcome = store.fetch(graph, "toy")
        assert outcome == "hit"
        _assert_snapshots_equal(first, again)
        assert manifest.read_bytes() == leftover

    def test_a_leftover_manifest_never_shadows_the_csr(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3)])
        store.fetch(graph, "toy")
        other = ExpandedGraph.from_edges([(7, 8), (8, 9), (9, 7)]).snapshot()
        save_sharded_snapshot(other, store.path_for("toy").with_suffix(".csrm"), shards=2)
        snap, outcome = store.fetch(graph, "toy")
        assert outcome == "hit"
        assert snap.content_hash == graph.snapshot().content_hash != other.content_hash
        assert store.load("toy").content_hash == snap.content_hash


def test_magic_is_stable():
    """The on-disk magic is part of the format contract — changing it breaks
    every previously persisted snapshot."""
    assert MAGIC == b"GGCSRSNP"
    assert HEADER_SIZE == 72 and HEADER_SIZE % 8 == 0


# --------------------------------------------------------------------------- #
# larger mmap stress (slow)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_large_synthetic_mmap_round_trip(tmp_path):
    from repro.dedup.expand import expand

    condensed = generate_condensed(
        num_real=300, num_virtual=600, mean_size=6, std_size=2, seed=9
    )
    graph = expand(condensed)
    snap = graph.snapshot()
    path = tmp_path / "large.csr"
    save_snapshot(snap, path)
    loaded = load_snapshot(path, mmap=True)
    _assert_snapshots_equal(snap, loaded)
    assert bfs_distances_kernel(loaded, 0) == bfs_distances_kernel(snap, 0)
