"""The trusted-reopen contract of the snapshot cache.

A session opened on a CSV directory asks its snapshot store *first*,
presenting a fingerprint of everything the snapshot would be produced from.
On a match the handle's snapshot is the store's verified mmap load and
nothing on the extraction side runs; on any mismatch — source bytes, query,
representation, options, keywords, a damaged ``.csr`` or sidecar — the
session does exactly what it always did: load, extract, compare, rewrite.

Every assertion here is a counter or a spy; none reads a clock.
"""

from __future__ import annotations

import io
import json
import shutil

import pytest

from repro.cli import main
from repro.core.config import ExtractionOptions
from repro.core.extractor import Extractor
from repro.graph import shard_store, snapshot_store
from repro.graph.kernel import CSRGraph
from repro.graph.snapshot_store import SOURCE_SIDECAR_MAX, SnapshotStore
from repro.relational import csv_io
from repro.relational.csv_io import fingerprint_database, read_database, write_database
from repro.relational.database import Database
from repro.service import GraphService
from repro.session import GraphSession

QUERY = """
Nodes(ID, Name) :- Person(ID, Name).
Edges(ID1, ID2) :- Likes(ID1, Item), Likes(ID2, Item).
"""
KEY = "friends"


def make_db() -> Database:
    db = Database("friends")
    db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("Likes", [("src", "int"), ("item", "int")])
    db.insert("Person", [(i, f"p{i}") for i in range(1, 9)])
    db.insert(
        "Likes",
        [(1, 10), (2, 10), (2, 11), (3, 11), (4, 12), (5, 12), (6, 12), (1, 13), (6, 13)],
    )
    return db


@pytest.fixture
def data(tmp_path):
    directory = tmp_path / "csvdb"
    write_database(make_db(), directory)
    return directory


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "snaps"


class Spies:
    """Call counters on the three extraction-side entry points."""

    def __init__(self, monkeypatch):
        self.calls = {"read_table_csv": 0, "sqlite_backend": 0, "extract_condensed": 0}
        self._wrap(monkeypatch, csv_io, "read_table_csv")
        self._wrap(monkeypatch, Database, "sqlite_backend")
        self._wrap(monkeypatch, Extractor, "extract_condensed")

    def _wrap(self, monkeypatch, owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @property
    def idle(self) -> bool:
        return not any(self.calls.values())


def answers(handle) -> dict:
    report = handle.analyze().degree().components().pagerank().run()
    return {result.algorithm: result.values for result in report}


def open_graph(source, cache, representation="cdup", query=QUERY, key=KEY, options=None, **kwargs):
    """One fresh session (= one process's view of the cache) and its handle."""
    session = GraphSession(
        source, snapshot_cache=str(cache), options=ExtractionOptions(**(options or {}))
    )
    handle = session.graph(query, representation=representation, key=key, **kwargs)
    handle.persist()
    return session, handle


def source_hits(session) -> int:
    return session.store.counters["source-hit"]


# --------------------------------------------------------------------------- #
# the hit
# --------------------------------------------------------------------------- #
class TestTrustedHit:
    def test_hit_does_no_extraction_side_work(self, data, cache, monkeypatch):
        _, cold = open_graph(data, cache)
        expected = answers(cold)
        assert cold.snapshot_source != "mmap"

        spies = Spies(monkeypatch)
        builds = CSRGraph.build_count
        saves = snapshot_store.saves_in_thread()
        session, warm = open_graph(data, cache)
        report = warm.analyze().degree().components().pagerank().run()

        assert spies.idle, spies.calls
        assert CSRGraph.build_count == builds
        assert snapshot_store.saves_in_thread() == saves
        assert warm.snapshot_source == "mmap"
        assert report.provenance.snapshot_source == "mmap"
        assert report.provenance.representation == "cdup"
        assert session.store.counters["source-hit"] == 1
        assert session.store.last_outcome == "source-hit"
        assert {r.algorithm: r.values for r in report} == expected
        assert warm.snapshot().content_hash == cold.snapshot().content_hash

    def test_reopened_handle_stays_reopened_at_parallelism_2(self, data, cache, monkeypatch):
        """No plan step at ``parallelism > 1`` asks for ``handle.graph``: the
        eleven-algorithm batch on a reopened handle slices its triangle pass
        over workers that map the cached file, parses no CSV, mirrors and
        extracts nothing, and never materialises the graph."""
        batch = (
            "degree", "pagerank", "components", "bfs", "kcore", "triangles", "clustering",
            "label_propagation", "closeness", "betweenness", "diameter",
        )  # fmt: skip

        def run(handle):
            plan = handle.analyze()
            for name in batch:
                plan.add(name, **({"source": 1} if name == "bfs" else {}))
            return plan.run()

        _, cold = open_graph(data, cache)
        expected = [(result.label, result.values) for result in run(cold)]

        spies = Spies(monkeypatch)
        with GraphSession(data, snapshot_cache=str(cache), parallelism=2) as session:
            warm = session.graph(QUERY, key=KEY)
            report = run(warm)
            assert warm._graph is None
            assert source_hits(session) == 1
        assert spies.idle, spies.calls
        assert report.pool_starts == 1 and report["triangles"].scheduled == "pool"
        assert report.provenance.snapshot_source == "mmap"
        assert [(result.label, result.values) for result in report] == expected

    def test_loaded_database_is_trusted_until_it_changes(self, data, cache, monkeypatch):
        open_graph(data, cache)
        db = read_database(data)
        assert db.source_fingerprint == fingerprint_database(data)
        spies = Spies(monkeypatch)
        session, handle = open_graph(db, cache)
        assert source_hits(session) == 1 and spies.idle
        assert session.database is db

        db.insert("Likes", [(7, 13)])
        assert db.source_fingerprint is None
        session, handle = open_graph(db, cache)
        assert source_hits(session) == 0
        assert spies.calls["extract_condensed"] == 1
        assert handle.graph.has_vertex(7)

    def test_in_memory_database_never_has_a_fingerprint(self, cache):
        db = make_db()
        assert db.source_fingerprint is None
        for _ in range(2):
            session, _ = open_graph(db, cache)
            assert source_hits(session) == 0
        assert not list(cache.glob("*.src"))

    def test_sidecar_is_small_and_pins_both_hashes(self, data, cache):
        session, handle = open_graph(data, cache, representation="auto")
        sidecar = session.store.source_path_for(KEY)
        assert sidecar.stat().st_size <= SOURCE_SIDECAR_MAX
        recorded = json.loads(sidecar.read_text())
        assert recorded["content"] == handle.snapshot().content_hash.hex()
        assert recorded["label"] == handle.representation != "auto"
        # the resolved representation survives the reopen
        _, warm = open_graph(data, cache, representation="auto")
        assert warm.representation == handle.representation

    def test_persist_alone_records_the_source(self, data, cache):
        """A snapshot built behind the handle's back (free-function
        algorithms on ``handle.graph``) never goes through ``fetch``;
        ``persist()`` still leaves a reopenable file."""
        session = GraphSession(data, snapshot_cache=str(cache))
        handle = session.graph(QUERY, key=KEY)
        handle.graph.snapshot()
        handle.persist()
        assert session.store.counters["miss"] == 0  # fetch never ran
        session, _ = open_graph(data, cache)
        assert source_hits(session) == 1

    def test_layout_and_comments_of_the_query_do_not_count(self, data, cache):
        open_graph(data, cache, key=None)
        relaid = "% co-likes\n" + QUERY.replace(", ", " ,\n   ") + "  # done\n"
        session, _ = open_graph(data, cache, query=relaid, key=None)
        assert source_hits(session) == 1

    def test_stats_surface_the_decision(self, data, cache):
        open_graph(data, cache)
        session, handle = open_graph(data, cache)
        stats = GraphService(session, handle).stats()
        assert stats["store"]["source-hit"] == 1
        assert stats["store"]["miss"] == 0


# --------------------------------------------------------------------------- #
# materialisation
# --------------------------------------------------------------------------- #
class TestMaterialisation:
    def test_touching_the_graph_runs_the_deferred_extraction(self, data, cache, monkeypatch):
        open_graph(data, cache)
        spies = Spies(monkeypatch)
        session, handle = open_graph(data, cache)
        trusted = handle.snapshot().content_hash
        assert spies.idle

        graph = handle.graph
        assert spies.calls["extract_condensed"] == 1
        assert spies.calls["read_table_csv"] == 2
        assert graph.snapshot().content_hash == trusted
        assert handle.extraction.graph is graph
        assert session.database.has_table("Likes")
        # the live graph now drives the handle, through the ordinary path
        assert handle.snapshot().content_hash == trusted
        assert handle.snapshot_source == "cache-hit"
        assert handle.graph is graph and spies.calls["extract_condensed"] == 1

    def test_mutating_a_reopened_graph_invalidates_the_sidecar(self, data, cache):
        open_graph(data, cache)
        session, handle = open_graph(data, cache)
        before = handle.snapshot().content_hash
        handle.graph.add_edge(3, 8)
        writes = snapshot_store.saves_in_thread()
        after = handle.snapshot().content_hash
        assert after != before
        assert snapshot_store.saves_in_thread() == writes + 1
        assert snapshot_store.peek_header(session.store.path_for(KEY)).content_hash == after

        # the source still produces the unmutated graph: no trust, rebuilt
        session, handle = open_graph(data, cache)
        assert source_hits(session) == 0
        assert handle.snapshot().content_hash == before
        session, _ = open_graph(data, cache)
        assert source_hits(session) == 1

    def test_session_surfaces_need_no_tables(self, data, cache, monkeypatch):
        open_graph(data, cache)
        spies = Spies(monkeypatch)
        session, handle = open_graph(data, cache)
        assert session.database_name == "friends"
        assert handle.journal is None
        assert handle.consume_snapshot_notes() == ()
        assert GraphService(session, handle).health()["database"] == "friends"
        assert spies.idle


# --------------------------------------------------------------------------- #
# invalidation: every one of these is a miss that re-extracts and rewrites
# --------------------------------------------------------------------------- #
def _flip_csv_byte(data):
    path = data / "Likes.csv"
    raw = bytearray(path.read_bytes())
    position = raw.rindex(b"13")
    raw[position : position + 2] = b"12"
    path.write_bytes(bytes(raw))


def _touch_manifest(data):
    path = data / csv_io.SCHEMA_MANIFEST
    path.write_bytes(path.read_bytes() + b"\n")


SOURCE_EDITS = {"csv-byte": _flip_csv_byte, "manifest-byte": _touch_manifest}

REQUEST_CHANGES = {
    "query": {"query": QUERY.replace("Likes(ID2, Item).", "Likes(ID2, Item), Item >= 11.")},
    "representation": {"representation": "exp"},
    "extract-kwargs": {"representation": "dedup1", "seed": 3},
    "threshold_factor": {"options": {"threshold_factor": 3.0}},
    "estimator": {"options": {"estimator": "exact"}},
    "preprocess": {"options": {"preprocess": False}},
    "auto_expand_growth": {"options": {"auto_expand_growth": 0.2}},
    "skip_unknown_endpoints": {"options": {"skip_unknown_endpoints": False}},
    "extract_engine": {"options": {"extract_engine": "pushdown"}},
    "extract_engine-sqlite": {"options": {"extract_engine": "sqlite"}},
}


class TestInvalidation:
    def _assert_miss_then_hit(self, data, cache, monkeypatch, **request):
        spies = Spies(monkeypatch)
        saves = snapshot_store.saves_in_thread()
        session, handle = open_graph(data, cache, **request)
        assert source_hits(session) == 0
        assert spies.calls["extract_condensed"] == 1
        recorded = json.loads(session.store.source_path_for(KEY).read_text())
        assert recorded["content"] == handle.snapshot().content_hash.hex()
        session, _ = open_graph(data, cache, **request)
        assert source_hits(session) == 1
        assert spies.calls["extract_condensed"] == 1
        return snapshot_store.saves_in_thread() - saves

    @pytest.mark.parametrize("edit", sorted(SOURCE_EDITS))
    def test_source_bytes_changed(self, data, cache, monkeypatch, edit):
        open_graph(data, cache)
        SOURCE_EDITS[edit](data)
        self._assert_miss_then_hit(data, cache, monkeypatch)

    def test_table_file_added_or_removed(self, data, cache, monkeypatch):
        (data / csv_io.SCHEMA_MANIFEST).unlink()  # every *.csv is a table now
        open_graph(data, cache)
        extra = data / "Visits.csv"
        extra.write_text("who,place\n1,2\n")
        self._assert_miss_then_hit(data, cache, monkeypatch)
        extra.unlink()
        self._assert_miss_then_hit(data, cache, monkeypatch)

    @pytest.mark.parametrize("change", sorted(REQUEST_CHANGES))
    def test_request_changed(self, data, cache, monkeypatch, change):
        request = dict(REQUEST_CHANGES[change])
        if change == "extract-kwargs":
            open_graph(data, cache, representation="dedup1", seed=0)
        else:
            open_graph(data, cache)
        self._assert_miss_then_hit(data, cache, monkeypatch, **request)

    def test_a_changed_graph_rewrites_the_snapshot(self, data, cache, monkeypatch):
        open_graph(data, cache)
        _flip_csv_byte(data)
        assert self._assert_miss_then_hit(data, cache, monkeypatch) == 1


# --------------------------------------------------------------------------- #
# damaged files are rebuilt, never trusted
# --------------------------------------------------------------------------- #
def _truncate_csr(store):
    path = store.path_for(KEY)
    path.write_bytes(path.read_bytes()[:-9])


def _flip_csr_bit(store):
    path = store.path_for(KEY)
    raw = bytearray(path.read_bytes())
    raw[snapshot_store.HEADER_SIZE + 11] ^= 0x40  # inside the offsets section
    path.write_bytes(bytes(raw))


def _garbage_sidecar(store):
    store.source_path_for(KEY).write_bytes(b"\x00\xffnot json at all")


def _wrong_shape_sidecar(store):
    store.source_path_for(KEY).write_text(json.dumps(["source", "content"]))


def _oversized_sidecar(store):
    path = store.source_path_for(KEY)
    recorded = json.loads(path.read_text())
    recorded["padding"] = "x" * SOURCE_SIDECAR_MAX
    path.write_text(json.dumps(recorded))


def _missing_sidecar(store):
    store.source_path_for(KEY).unlink()


def _missing_csr(store):
    store.path_for(KEY).unlink()


DAMAGE = {
    "truncated-csr": _truncate_csr,
    "bit-flipped-csr": _flip_csr_bit,
    "missing-csr": _missing_csr,
    "garbage-sidecar": _garbage_sidecar,
    "wrong-shape-sidecar": _wrong_shape_sidecar,
    "oversized-sidecar": _oversized_sidecar,
    "missing-sidecar": _missing_sidecar,
}


class TestDamagedFiles:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_a_miss_and_gets_repaired(self, data, cache, monkeypatch, damage):
        session, cold = open_graph(data, cache)
        expected = answers(cold)
        DAMAGE[damage](session.store)

        spies = Spies(monkeypatch)
        session, handle = open_graph(data, cache)
        assert source_hits(session) == 0
        assert spies.calls["extract_condensed"] == 1
        assert answers(handle) == expected
        # repaired: the file verifies again and the next open trusts it
        session.store.load(KEY, verify=True)
        session, handle = open_graph(data, cache)
        assert source_hits(session) == 1
        assert answers(handle) == expected

    def test_sidecar_paired_with_another_snapshot(self, data, cache, tmp_path, monkeypatch):
        session, cold = open_graph(data, cache)
        expected = answers(cold)
        # a valid .csr of a *different* graph lands under this key
        other = tmp_path / "other"
        shutil.copytree(data, other)
        _flip_csv_byte(other)
        other_session, _ = open_graph(other, tmp_path / "other-snaps")
        shutil.copyfile(other_session.store.path_for(KEY), session.store.path_for(KEY))

        spies = Spies(monkeypatch)
        session, handle = open_graph(data, cache)
        assert source_hits(session) == 0
        assert spies.calls["extract_condensed"] == 1
        assert session.store.counters["stale"] == 1
        assert answers(handle) == expected

    def test_a_leftover_shard_set_is_ignored(self, data, cache, monkeypatch):
        """A ``.csrm`` manifest and its segments under the handle's key are
        never read: the store writes and then trusts a monolithic ``.csr``."""
        unstored = GraphSession(read_database(data)).graph(QUERY)
        expected = answers(unstored)
        manifest = SnapshotStore(cache).path_for(KEY).with_suffix(".csrm")
        shard_store.save_sharded_snapshot(unstored.snapshot(), manifest, shards=2)
        leftover = {path: path.read_bytes() for path in cache.glob("*.csrm*")}
        assert len(leftover) == 3
        reads = []
        for name in ("peek_manifest", "load_sharded_snapshot"):
            spy = lambda *args, _name=name, **kwargs: reads.append(_name)  # noqa: E731
            monkeypatch.setattr(shard_store, name, spy)

        session, cold = open_graph(data, cache)
        assert session.store.counters["miss"] == 1
        assert session.store.fetch(cold.graph, KEY)[1] == "hit"
        assert session.store.path_for(KEY).exists()
        assert answers(cold) == expected

        spies = Spies(monkeypatch)
        session, warm = open_graph(data, cache)
        assert source_hits(session) == 1
        assert spies.calls["read_table_csv"] == 0
        assert answers(warm) == expected
        assert reads == []
        assert {path: path.read_bytes() for path in cache.glob("*.csrm*")} == leftover


# --------------------------------------------------------------------------- #
# the CLI: same bytes out, cold or warm
# --------------------------------------------------------------------------- #
def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    @pytest.mark.parametrize(
        "representation", ["cdup", "exp", "dedup1", "dedup2", "bitmap", "auto"]
    )
    def test_warm_stdout_is_byte_identical(self, data, cache, monkeypatch, representation):
        argv = [
            "analyze", "--data", str(data), "--query", QUERY,
            "--representation", representation, "--snapshot-cache", str(cache),
            "--algo", "degree", "--algo", "components", "--algo", "pagerank",
            "--algo", "bfs", "--source", "1",
        ]  # fmt: skip
        code, cold = run_cli(*argv)
        assert code == 0
        spies = Spies(monkeypatch)
        code, warm = run_cli(*argv)
        assert code == 0
        assert spies.idle, spies.calls
        assert warm == cold

    def test_plan_report_names_the_path(self, data, cache):
        argv = ["analyze", "--data", str(data), "--query", QUERY,
                "--snapshot-cache", str(cache), "--plan-report"]  # fmt: skip
        _, cold = run_cli(*argv)
        _, warm = run_cli(*argv)
        assert "snapshot (mmap)" not in cold
        assert "snapshot (mmap)" in warm

    def test_bfs_source_resolves_against_the_snapshot(self, data, cache, monkeypatch, capsys):
        argv = ["analyze", "--data", str(data), "--query", QUERY,
                "--snapshot-cache", str(cache), "--algo", "bfs", "--source"]  # fmt: skip
        assert run_cli(*argv, "2")[0] == 0
        spies = Spies(monkeypatch)
        code, warm = run_cli(*argv, "2")
        assert code == 0 and "reachable vertices: 6" in warm and spies.idle
        # unknown vertex: the same one-line error, still without extracting
        assert run_cli(*argv, "nobody")[0] == 1
        assert capsys.readouterr().err == "error: vertex 'nobody' is not in the extracted graph\n"
        assert spies.idle

    def test_serve_boots_from_the_cache(self, data, cache, monkeypatch):
        run_cli("analyze", "--data", str(data), "--query", QUERY, "--snapshot-cache", str(cache))
        spies = Spies(monkeypatch)
        served = {}

        def fake_make_server(service, host, port, *, max_requests=None):
            served["stats"] = service.stats()
            served["answers"] = service.analyze({"algorithm": "components"})
            raise KeyboardInterrupt  # boot is all this test wants

        monkeypatch.setattr("repro.service.make_server", fake_make_server)
        with pytest.raises(KeyboardInterrupt):
            run_cli("serve", "--data", str(data), "--query", QUERY, "--snapshot-cache", str(cache))
        assert served["stats"]["store"]["source-hit"] == 1
        assert len(served["answers"]) == 1
        assert spies.idle
