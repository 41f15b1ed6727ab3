"""Tests for the delta journal layer (repro.graph.delta).

The contract under test:

* the ``.csrd`` journal codec round-trips records exactly and fails loudly
  on every malformed shape (the same matrix the snapshot format pins in
  ``test_snapshot_store.py``): wrong magic, unsupported version, non-zero
  reserved fields, truncated header / record / payload, unknown op byte,
  corrupt pickle payload, trailing bytes, missing file;
* :class:`~repro.graph.delta.JournaledGraph` journals exactly the
  *effective* logical deltas — duplicate adds, repeated deletes and
  symmetric mirror edges append what the inner representation actually
  changed, and a journaled snapshot equals a cold rebuild element-wise;
* the backends' ``apply_overlay`` agree with the pure-python
  ``merge_overlay`` reference element-wise (strip + sorted additions + new
  vertices);
* :class:`~repro.graph.snapshot_store.SnapshotStore` serves journaled
  graphs through the ``base+delta`` outcome (base file untouched, sidecar
  synced with O(new records) I/O), compacts once the journal outgrows
  ``compact_fraction`` of the base, and falls back to a full rebuild with a
  provenance note when the sidecar is corrupt or the base hash mismatches;
* mutation semantics across the five representations: duplicate adds and
  (where representable) self-loops are pinned, and no-op mutations never
  stale the snapshot cache (version bumps fire exactly once per effective
  mutation).
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SnapshotFormatError
from repro.graph import CSRGraph, ExpandedGraph, SnapshotStore
from repro.graph.backend import get_backend, numpy_available
from repro.graph.delta import (
    DELTA_FORMAT_VERSION,
    DELTA_HEADER_SIZE,
    DELTA_MAGIC,
    DeltaJournal,
    DeltaOverlay,
    JournaledGraph,
    merge_overlay,
    read_journal,
    write_journal,
)

from tests.conftest import build_parity_family

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def _assert_snapshots_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert list(a.offsets) == list(b.offsets)
    assert list(a.targets) == list(b.targets)
    assert a.external_ids == b.external_ids


RECORDS = [
    ("+", (1, 2)),
    ("-", (2, 3)),
    ("V", 99),
    ("+", ("paper", ("a", 7))),  # tuple vertex IDs survive
]


# --------------------------------------------------------------------------- #
# journal file codec
# --------------------------------------------------------------------------- #
class TestJournalCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.csrd"
        base_hash = bytes(range(32))
        write_journal(path, base_hash, RECORDS)
        stored_hash, stored = read_journal(path)
        assert stored_hash == base_hash
        assert stored == RECORDS

    def test_empty_journal_round_trips(self, tmp_path):
        path = tmp_path / "empty.csrd"
        write_journal(path, b"\x00" * 32, [])
        assert read_journal(path) == (b"\x00" * 32, [])
        assert path.stat().st_size == DELTA_HEADER_SIZE


@pytest.fixture
def journal_file(tmp_path):
    path = tmp_path / "g.csrd"
    write_journal(path, bytes(range(32)), RECORDS)
    return path


class TestMalformedJournals:
    def test_wrong_magic(self, journal_file):
        data = bytearray(journal_file.read_bytes())
        data[:8] = b"NOTADELT"
        journal_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            read_journal(journal_file)

    def test_unsupported_version(self, journal_file):
        data = bytearray(journal_file.read_bytes())
        data[8] = DELTA_FORMAT_VERSION + 1  # little-endian u16 at offset 8
        journal_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_journal(journal_file)

    def test_nonzero_reserved_fields(self, journal_file):
        data = bytearray(journal_file.read_bytes())
        data[10] = 1  # flags u16 at offset 10
        journal_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="reserved"):
            read_journal(journal_file)

    def test_truncated_header(self, journal_file):
        journal_file.write_bytes(journal_file.read_bytes()[: DELTA_HEADER_SIZE - 5])
        with pytest.raises(SnapshotFormatError, match="too small"):
            read_journal(journal_file)

    def test_truncated_record(self, journal_file):
        journal_file.write_bytes(journal_file.read_bytes()[:-3])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_journal(journal_file)

    def test_missing_trailing_record(self, journal_file):
        # header promises 4 records but the file ends after the prefix of
        # the first: the record itself is incomplete
        journal_file.write_bytes(
            journal_file.read_bytes()[: DELTA_HEADER_SIZE + 2]
        )
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_journal(journal_file)

    def test_unknown_op_byte(self, journal_file):
        data = bytearray(journal_file.read_bytes())
        data[DELTA_HEADER_SIZE] = ord("?")
        journal_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="unknown delta record op"):
            read_journal(journal_file)

    def test_corrupt_pickle_payload(self, journal_file):
        data = bytearray(journal_file.read_bytes())
        for i in range(DELTA_HEADER_SIZE + 5, DELTA_HEADER_SIZE + 9):
            data[i] = 0xFF
        journal_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="corrupt delta record"):
            read_journal(journal_file)

    def test_trailing_garbage_rejected(self, journal_file):
        journal_file.write_bytes(journal_file.read_bytes() + b"extra")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_journal(journal_file)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            read_journal(tmp_path / "nope.csrd")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csrd"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError, match="too small"):
            read_journal(path)

    def test_magic_is_stable(self):
        # the on-disk magic is a compatibility contract, not an implementation
        # detail — changing it orphans every journal in every store directory
        assert DELTA_MAGIC == b"GGCSRDLT"


# --------------------------------------------------------------------------- #
# the in-memory journal
# --------------------------------------------------------------------------- #
class TestDeltaJournal:
    def test_positions_survive_rebase(self):
        journal = DeltaJournal(b"\x01" * 32)
        for record in RECORDS:
            journal.append(*record)
        assert journal.total == 4
        assert journal.records_since(2) == RECORDS[2:]
        journal.rebase(b"\x02" * 32, compacted=True)
        assert journal.compactions == 1
        assert journal.total == 4  # monotonic
        assert journal.records == []
        # positions that predate the new base are no longer replayable
        assert journal.records_since(2) is None
        assert journal.records_since(4) == []
        journal.append("+", (9, 10))
        assert journal.records_since(4) == [("+", (9, 10))]

    def test_edge_records_is_a_running_count(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()
        journal = graph.journal

        def counted() -> int:
            recount = sum(op != "V" for op, _ in journal.records)
            assert journal.edge_records == graph.delta_edges == recount
            return recount

        graph.add_edge(1, 3)
        graph.add_edge(4, 77)  # a V record, then the edge
        graph.add_vertex(90)
        graph.delete_edge(1, 2)
        assert counted() == 3
        graph.rebase_onto(graph.snapshot())  # a compaction
        assert counted() == 0 and journal.compactions == 1
        graph.add_edge(2, 4)
        graph.add_vertex(91)
        assert counted() == 1
        graph.delete_vertex(77)  # the next snapshot rebaselines
        graph.snapshot()
        assert counted() == 0
        graph.add_edge(3, 1)
        journal.rebase(b"\x07" * 32)
        assert counted() == 0

    def test_sync_appends_instead_of_rewriting(self, tmp_path):
        path = tmp_path / "g.csrd"
        journal = DeltaJournal(b"\x03" * 32)
        journal.append("+", (1, 2))
        assert journal.sync(path) == "rewritten"
        assert journal.sync(path) == "unchanged"
        journal.append("+", (2, 3))
        assert journal.sync(path) == "appended"
        assert read_journal(path) == (b"\x03" * 32, journal.records)

    def test_sync_rewrites_on_base_change(self, tmp_path):
        path = tmp_path / "g.csrd"
        journal = DeltaJournal(b"\x04" * 32)
        journal.append("+", (1, 2))
        journal.sync(path)
        journal.rebase(b"\x05" * 32)
        journal.append("-", (1, 2))
        assert journal.sync(path) == "rewritten"
        assert read_journal(path) == (b"\x05" * 32, [("-", (1, 2))])

    def test_sync_surfaces_corruption(self, tmp_path):
        path = tmp_path / "g.csrd"
        journal = DeltaJournal(b"\x06" * 32)
        journal.append("+", (1, 2))
        journal.sync(path)
        path.write_bytes(b"garbage")
        fresh = DeltaJournal(b"\x06" * 32)
        fresh.append("+", (1, 2))
        with pytest.raises(SnapshotFormatError):
            fresh.sync(path)


# --------------------------------------------------------------------------- #
# overlay semantics + backend parity
# --------------------------------------------------------------------------- #
def _base_graph() -> ExpandedGraph:
    return ExpandedGraph.from_edges(
        [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4), (4, 1)]
    )


class TestDeltaOverlay:
    def test_last_op_wins_netting(self):
        overlay = DeltaOverlay(
            [("+", (1, 3)), ("-", (1, 3)), ("-", (2, 3)), ("+", (2, 3)), ("V", 9)]
        )
        # last op wins per directed pair: added-then-removed nets to absent,
        # removed-then-re-added nets to present
        assert (1, 3) not in overlay.added and (1, 3) in set(overlay.removed)
        assert (2, 3) in set(overlay.added) and (2, 3) not in set(overlay.removed)
        assert set(overlay.touched) == {(1, 3), (2, 3)}
        assert overlay.delta_edges == 4
        # endpoints appear as vertex candidates in first-appearance order
        assert overlay.vertex_candidates == [1, 3, 2, 9]

    def test_merge_matches_cold_rebuild(self):
        graph = _base_graph()
        base = graph.snapshot()
        records = [("V", 5), ("+", (4, 5)), ("+", (5, 4)), ("-", (1, 4)), ("-", (4, 1))]
        merged = merge_overlay(base, DeltaOverlay(records))
        for op, payload in records:
            if op == "+":
                graph.add_edge(*payload)
            elif op == "-":
                graph.delete_edge(*payload)
            else:
                graph.add_vertex(payload)
        _assert_snapshots_equal(merged, CSRGraph.from_graph(graph))

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_apply_overlay_matches_reference(self, backend_name):
        backend = get_backend(backend_name)
        base = _base_graph().snapshot()
        overlay = DeltaOverlay(
            [("V", 7), ("+", (7, 1)), ("+", (1, 7)), ("-", (2, 3)), ("+", (2, 4))]
        )
        reference = merge_overlay(base, overlay)
        applied = backend.apply_overlay(base, overlay)
        _assert_snapshots_equal(applied, reference)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_apply_overlay_matches_reference_on_a_wide_delta(self, backend_name, seed):
        """One strip pass, one addition scatter — over a delta that touches
        more than a thousand rows: rows stripped to empty, touched pairs the
        base never held (a removal of an edge added inside the window, an
        addition), last-op-wins re-adds, parallel base edges, and new
        vertices that both receive and emit additions."""
        import random

        rng = random.Random(seed)
        n = 3000
        rows = [[(v + step) % n for step in (1, 2, 5, -1, -2, -5)] for v in range(n)]
        for v in range(0, n, 9):
            rows[v].append((v + 1) % n)  # a parallel base edge: every copy is stripped
        offsets, targets = array("q", [0]), array("q")
        for row in rows:
            targets.extend(row)
            offsets.append(len(targets))
        base = CSRGraph(offsets, targets, list(range(n)))
        records: list[tuple] = []
        for v in rng.sample(range(n), 400):  # every out-edge of the row goes
            records += [("-", (v, t)) for t in {(v + s) % n for s in (1, 2, 5, -1, -2, -5)}]
        for _ in range(900):
            u, v = rng.randrange(n), rng.randrange(n)
            records += [("+", (u, v)), ("+", (v, u))]
        for _ in range(200):  # added, then removed again: touched, absent, not in base
            u, v = rng.randrange(n), rng.randrange(n)
            records += [("+", (u, v)), ("-", (u, v))]
        for v in rng.sample(range(n), 150):  # removed, then re-added
            records += [("-", (v, (v + 1) % n)), ("+", (v, (v + 1) % n))]
        for fresh in range(n, n + 60):
            records.append(("V", fresh))
            for _ in range(3):
                old = rng.randrange(n)
                records += [("+", (fresh, old)), ("+", (old, fresh))]
        records += [("+", (n + 1, n + 2)), ("V", n + 500)]  # new -> new; an isolated one
        rng.shuffle(records)

        overlay = DeltaOverlay(records)
        _, new_vertices, strip, additions = overlay.plan(base)
        assert len(strip) >= 1000 and len(new_vertices) == 61
        assert any(row >= base.n for row in additions)
        reference = merge_overlay(base, overlay)
        emptied = [v for v in range(base.n) if reference.offsets[v] == reference.offsets[v + 1]]
        assert emptied
        applied = get_backend(backend_name).apply_overlay(base, overlay)
        _assert_snapshots_equal(applied, reference)
        assert applied._index == reference._index
        assert type(applied.offsets) is type(reference.offsets)
        assert applied.offsets.typecode == applied.targets.typecode == "q"


#: base vertices are 1..4 (``_base_graph``); 0 and 5..8 arrive as new ones.
#: Edges stay among 0..5, so pairs are touched again across chunks.
_ENDPOINT = st.integers(0, 5)
_STEP = st.one_of(
    st.tuples(st.sampled_from(["add", "delete", "readd"]), _ENDPOINT, _ENDPOINT),
    st.tuples(st.just("vertex"), st.integers(0, 8)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=st.lists(_STEP, min_size=6, max_size=40), doomed=st.sampled_from([2, 5]), data=st.data())
def test_property_an_extended_overlay_equals_a_one_shot_one(steps, doomed, data):
    """Split a journaled stream at arbitrary points and fold the chunks
    through ``extend``: after every chunk the overlay plans and merges as
    one decoded from all pending records at once, and the graph's own kept
    overlay serves the same snapshot, across a compaction and a
    ``delete_vertex`` rebaseline."""
    steps = list(steps)
    steps.insert(data.draw(st.integers(0, len(steps))), ("compact",))
    steps.insert(data.draw(st.integers(0, len(steps))), ("delete_vertex", doomed))
    cuts = data.draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    graph = JournaledGraph(_base_graph())
    graph.snapshot()
    overlay, folded, origin = DeltaOverlay(), 0, graph.journal.base_total
    served = []

    def check() -> None:
        nonlocal overlay, folded, origin
        snap = graph.snapshot()
        served.append(snap)
        # snapshots share the merged codec: a later new vertex must not leak
        # into an earlier snapshot's index
        assert all(len(earlier._index) == earlier.n for earlier in served)
        base, journal = graph.base_snapshot, graph.journal
        if journal.base_total != origin:  # the pending records restarted
            overlay, folded, origin = DeltaOverlay(), 0, journal.base_total
        overlay.extend(journal.records[folded:])
        folded = len(journal.records)
        one_shot = DeltaOverlay(journal.records)
        assert overlay.plan(base) == one_shot.plan(base)
        for name in BACKENDS:
            backend = get_backend(name)
            _assert_snapshots_equal(
                overlay.materialize(base, backend=backend),
                one_shot.materialize(base, backend=backend),
            )
        assert snap.content_hash == one_shot.materialize(base).content_hash

    for step, cut in zip(steps, cuts):
        op, *args = step
        if op == "add":
            graph.add_edge(*args)
        elif op in ("delete", "readd"):
            if graph.exists_edge(*args):
                graph.delete_edge(*args)
                if op == "readd":  # removed, then re-added: nets to present
                    graph.add_edge(*args)
        elif op == "vertex":
            graph.add_vertex(*args)
        elif op == "compact":
            graph.rebase_onto(graph.snapshot())
        elif graph.has_vertex(*args):
            graph.delete_vertex(*args)
        if cut:
            check()
    check()


_RECORD = st.one_of(
    st.tuples(st.sampled_from(["+", "-"]), st.tuples(_ENDPOINT, _ENDPOINT)),
    st.tuples(st.just("V"), st.integers(0, 8)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(records=st.lists(_RECORD, max_size=40), data=st.data())
def test_property_overlay_netting_equals_brute_force(records, data):
    """``added`` / ``removed`` / ``prior_present`` of an overlay fed any
    ``+`` / ``-`` / ``V`` stream, split anywhere between the constructor and
    ``extend`` calls, equal a brute-force netting: each pair's last op in
    first-touch order, and the pairs whose first op is ``-``; its vertex
    candidates are every named vertex in first-appearance order."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
    chunks = [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]
    overlay = DeltaOverlay(chunks[0])
    for chunk in chunks[1:]:
        overlay.extend(chunk)

    touched = list(dict.fromkeys(pair for op, pair in records if op != "V"))
    ops = {pair: [op for op, other in records if other == pair and op != "V"] for pair in touched}
    assert overlay.added == [pair for pair in touched if ops[pair][-1] == "+"]
    assert overlay.removed == [pair for pair in touched if ops[pair][-1] == "-"]
    assert overlay.prior_present == {pair for pair in touched if ops[pair][0] == "-"}
    named = [v for op, payload in records for v in ((payload,) if op == "V" else payload)]
    assert overlay.vertex_candidates == list(dict.fromkeys(named))


# --------------------------------------------------------------------------- #
# JournaledGraph: effective-delta journaling
# --------------------------------------------------------------------------- #
class TestJournaledGraph:
    def test_journals_only_effective_deltas(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()  # pin the baseline
        graph.add_edge(1, 3)  # EXP is directed: only the forward edge lands
        assert graph.journal.records == [("+", (1, 3))]
        before = len(graph.journal)
        graph.add_edge(1, 3)  # duplicate: inner no-op, nothing journaled
        assert len(graph.journal) == before
        graph.delete_edge(1, 3)
        assert graph.journal.records[-1] == ("-", (1, 3))

    def test_symmetric_representation_journals_both_directions(self):
        from repro.dedup import deduplicate_dedup2

        from tests.conftest import build_symmetric_condensed

        condensed = build_symmetric_condensed(seed=11, num_real=12, num_virtual=4)
        graph = JournaledGraph(deduplicate_dedup2(condensed))
        graph.snapshot()
        vertices = list(graph.get_vertices())
        pair = next(
            (u, v)
            for u in vertices
            for v in vertices
            if u != v and not graph.exists_edge(u, v)
        )
        graph.add_edge(*pair)
        # DEDUP-2 materialises the mirror edge too; the journal records what
        # the representation actually changed, both directions
        assert set(graph.journal.records) == {("+", pair), ("+", pair[::-1])}

    def test_new_vertex_records(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()
        graph.add_edge(4, 77)
        assert graph.journal.records == [("V", 77), ("+", (4, 77))]

    def test_snapshot_equals_cold_rebuild(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()
        graph.add_edge(2, 4)
        graph.add_edge(4, 88)
        graph.delete_edge(1, 2)
        _assert_snapshots_equal(graph.snapshot(), CSRGraph.from_graph(graph.inner))

    def test_vertex_deletion_rebaselines(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()
        generation = graph.generation
        graph.add_edge(1, 3)
        graph.delete_vertex(4)
        graph.snapshot()
        assert graph.generation > generation
        assert graph.journal.records == []  # folded into the new baseline

    def test_out_of_band_inner_mutation_detected(self):
        graph = JournaledGraph(_base_graph())
        graph.snapshot()
        graph.inner.add_edge(2, 4)  # bypasses the journal
        generation = graph.generation
        _assert_snapshots_equal(graph.snapshot(), CSRGraph.from_graph(graph.inner))
        assert graph.generation > generation
        notes = graph.consume_notes()
        assert any("journal" in note for note in notes)


# --------------------------------------------------------------------------- #
# the store's base+delta path
# --------------------------------------------------------------------------- #
class TestStoreJournaledFetch:
    def test_base_delta_then_compaction(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        store.compact_fraction = 0.5
        graph = JournaledGraph(_base_graph())
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "miss"
        base_bytes = store.path_for("g").read_bytes()

        graph.add_edge(1, 3)  # 2 records <= 0.5 * 8 edges: stays a delta
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "base+delta"
        assert store.path_for("g").read_bytes() == base_bytes  # base untouched
        assert store.delta_path_for("g").exists()
        _, stored = read_journal(store.delta_path_for("g"))
        assert stored == graph.journal.records

        graph.add_edge(2, 4)
        graph.add_edge(4, 88)
        graph.add_edge(88, 4)  # 5 records > threshold 4 (0.5 * 8 edges)
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "compact"
        assert not store.delta_path_for("g").exists()
        assert graph.journal.records == []
        assert graph.journal.compactions == 1
        # the merged snapshot is now the base: next fetch is a plain hit
        assert store.fetch(graph, "g")[1] == "hit"
        assert store.counters["base+delta"] == 1
        assert store.counters["compact"] == 1

    def test_corrupt_sidecar_falls_back_to_rebuild(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = JournaledGraph(_base_graph())
        store.fetch(graph, "g")
        graph.add_edge(1, 3)
        store.fetch(graph, "g")
        store.delta_path_for("g").write_bytes(b"garbage")

        graph.add_edge(2, 4)
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "stale"
        assert not store.delta_path_for("g").exists()
        notes = graph.consume_notes()
        assert any("corrupt" in note for note in notes)
        # the rebuilt file holds the merged snapshot
        _assert_snapshots_equal(store.load("g"), CSRGraph.from_graph(graph.inner))
        # journaling then resumes against the new base
        graph.add_edge(3, 1)
        assert store.fetch(graph, "g")[1] == "base+delta"

    def test_base_hash_mismatch_rewrites_base(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = JournaledGraph(_base_graph())
        store.fetch(graph, "g")
        # another graph takes over the key: the stored base no longer
        # matches this journal's base hash and must be rewritten
        other = ExpandedGraph.from_edges([(10, 11), (11, 10)])
        store.fetch(other, "g")

        graph.add_edge(1, 3)
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "base+delta"
        from repro.graph.snapshot_store import peek_header

        assert peek_header(store.path_for("g")).content_hash == graph.base_hash
        stored_hash, _ = read_journal(store.delta_path_for("g"))
        assert stored_hash == graph.base_hash

    def test_spent_journal_sidecar_removed(self, tmp_path):
        store = SnapshotStore(tmp_path / "cache")
        graph = JournaledGraph(_base_graph())
        store.fetch(graph, "g")
        graph.add_edge(1, 3)
        store.fetch(graph, "g")
        assert store.delta_path_for("g").exists()
        graph.delete_vertex(4)  # rebaseline: pending records are folded in
        snap, outcome = store.fetch(graph, "g")
        assert outcome == "stale"  # new merged base replaces the file
        assert not store.delta_path_for("g").exists()


# --------------------------------------------------------------------------- #
# mutation semantics across the five representations (the PR's satellite:
# version bumps fire exactly once per effective mutation)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def family():
    return build_parity_family(
        "symmetric", seed=23, num_real=20, num_virtual=8, max_size=5, include_dedup2=True
    )


REPRESENTATIONS = ["EXP", "C-DUP", "DEDUP-1", "BITMAP", "DEDUP-2"]


class TestMutationSemantics:
    @pytest.mark.parametrize("name", REPRESENTATIONS)
    def test_duplicate_add_is_a_noop(self, family, name):
        graph = family[name]
        source = next(iter(graph.get_vertices()))
        target = next(iter(graph.get_neighbors(source)))
        assert graph.exists_edge(source, target)
        edges_before = graph.num_edges()
        token_before = graph._snapshot_token()
        snap_before = graph.snapshot()
        graph.add_edge(source, target)
        # a duplicate add changes nothing: same edge count, same snapshot
        # token, and the cached snapshot is served without a rebuild
        assert graph.num_edges() == edges_before
        assert graph._snapshot_token() == token_before
        assert graph.snapshot() is snap_before

    @pytest.mark.parametrize("name", REPRESENTATIONS)
    def test_effective_add_bumps_exactly_once(self, family, name):
        graph = family[name]
        vertices = list(graph.get_vertices())
        pair = None
        for source in vertices:
            for target in vertices:
                if source != target and not graph.exists_edge(source, target):
                    pair = (source, target)
                    break
            if pair:
                break
        assert pair is not None
        edges_before = graph.num_edges()
        token_before = graph._snapshot_token()
        graph.add_edge(*pair)
        assert graph.exists_edge(*pair)
        assert graph.num_edges() > edges_before
        token_after = graph._snapshot_token()
        assert token_after != token_before
        # idempotence: re-adding stays at the post-mutation token
        graph.add_edge(*pair)
        assert graph._snapshot_token() == token_after

    @pytest.mark.parametrize("name", ["EXP", "C-DUP", "DEDUP-1", "BITMAP"])
    def test_self_loop_representable(self, family, name):
        graph = family[name]
        vertex = next(iter(graph.get_vertices()))
        if not graph.exists_edge(vertex, vertex):
            graph.add_edge(vertex, vertex)
        assert graph.exists_edge(vertex, vertex)
        # and duplicates of the loop are still no-ops
        token = graph._snapshot_token()
        graph.add_edge(vertex, vertex)
        assert graph._snapshot_token() == token

    def test_dedup2_self_loop_is_a_noop(self, family):
        graph = family["DEDUP-2"]
        vertex = next(iter(graph.get_vertices()))
        token = graph._snapshot_token()
        virtuals = len(list(graph.virtual_nodes()))
        graph.add_edge(vertex, vertex)
        # DEDUP-2 cannot represent self-loops; the add must not leave a junk
        # single-member virtual node behind nor stale the snapshot
        assert not graph.exists_edge(vertex, vertex)
        assert len(list(graph.virtual_nodes())) == virtuals
        assert graph._snapshot_token() == token

    def test_exp_raw_multigraph_path_still_duplicates(self):
        # from_edges(deduplicate=False) intentionally keeps parallel edges:
        # the EXP duplicate-no-op applies to the logical add_edge only
        graph = ExpandedGraph.from_edges([(1, 2), (1, 2)], deduplicate=False)
        assert graph.num_edges() == 2
