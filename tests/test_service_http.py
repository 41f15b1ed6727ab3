"""Tests for the service's HTTP front-end (real sockets, stdlib client).

Boots :class:`repro.service.GraphServiceServer` in-process on a loopback
port and talks to it with ``urllib`` — the same wire a curl user sees.
Covers the route table, the error contract (4xx one-line JSON messages,
never a traceback; 503 on admission refusal), faults (malformed or
oversized ``Content-Length`` over a raw socket, a body that never arrives,
a pool worker killed mid-plan, a coordinator killed over its workers),
``TCP_NODELAY`` on accepted sockets, concurrent clients sharing one result cache, the mutation
endpoint, bounded-lifetime shutdown (``max_requests``), and finally the CLI
``serve`` command end-to-end in a subprocess (the same path ``make
serve-smoke`` drives).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import GraphService, decode_report, make_server, serve_in_thread
from repro.service.http import MAX_BODY_BYTES, GraphServiceHandler
from repro.session import GraphSession
from tests.conftest import COAUTHOR_QUERY, child_env
from tests.test_session import make_db

REPO_ROOT = Path(__file__).resolve().parent.parent


def http_get(base: str, path: str):
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
        return response.status, json.loads(response.read())


def http_post(base: str, path: str, body) -> tuple[int, dict]:
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(f"{base}{path}", data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def served(tmp_path):
    """(base_url, service, server): a live loopback server over the toy
    DBLP graph, torn down after the test."""
    session = GraphSession(
        make_db(), backend="python", snapshot_cache=str(tmp_path / "snaps")
    )
    service = GraphService(session, session.graph(COAUTHOR_QUERY))
    server = make_server(service)
    host, port = server.server_address[:2]
    serve_in_thread(server)
    try:
        yield f"http://{host}:{port}", service, server
    finally:
        server.shutdown()
        server.server_close()
        session.close()


class TestRoutes:
    def test_health(self, served):
        base, _, _ = served
        status, body = http_get(base, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["database"] == "toy_dblp"

    def test_algorithms(self, served):
        base, _, _ = served
        status, body = http_get(base, "/algorithms")
        assert status == 200
        assert body["bfs"]["params"]["source"] == "<required>"

    def test_analyze_round_trip_and_cache_hit(self, served):
        base, _, _ = served
        payload = {
            "algorithms": [
                {"name": "pagerank"},
                {"name": "bfs", "params": {"source": 1}},
            ]
        }
        status, body = http_post(base, "/analyze", payload)
        assert status == 200
        first = decode_report(body)
        assert first.cache == {"hits": 0, "misses": 2, "queue_depth": 0}
        # bfs distances decode with int vertex keys, not JSON strings
        assert first["bfs"].values[1] == 0

        status, body = http_post(base, "/analyze", payload)
        assert status == 200
        second = decode_report(body)
        assert second.cache == {"hits": 2, "misses": 0, "queue_depth": 0}
        assert second["pagerank"].provenance.snapshot_source == "result-cache"
        # bit-identical floats across the wire, fresh and cached alike
        assert repr(second["pagerank"].values) == repr(first["pagerank"].values)

    def test_edges_moves_the_cache_epoch(self, served):
        base, _, _ = served
        http_post(base, "/analyze", {"algorithm": "triangles"})
        status, body = http_post(base, "/edges", {"source": 7, "target": 1})
        assert status == 200
        assert body["content_hash"] != body["old_content_hash"]
        assert body["invalidated"] == 1
        status, body = http_post(base, "/analyze", {"algorithm": "triangles"})
        assert decode_report(body).cache["misses"] == 1

    def test_stats_reflect_traffic(self, served):
        base, _, _ = served
        http_post(base, "/analyze", {"algorithm": "degree"})
        http_post(base, "/analyze", {"algorithm": "degree"})
        status, body = http_get(base, "/stats")
        assert status == 200
        assert body["cache"]["hits"] == 1
        assert body["admission"]["requests"] == 2


class TestErrorContract:
    def test_unknown_algorithm_is_400_one_liner(self, served):
        base, _, _ = served
        status, body = http_post(base, "/analyze", {"algorithm": "nope"})
        assert status == 400
        assert "unknown algorithm 'nope'" in body["error"]
        assert "\n" not in body["error"]
        assert "Traceback" not in body["error"]

    def test_bad_params_is_400(self, served):
        base, _, _ = served
        status, body = http_post(
            base, "/analyze", {"algorithm": "pagerank", "params": {"damping": 2.0}}
        )
        assert status == 400
        assert "damping must be in" in body["error"]

    def test_invalid_json_body_is_400(self, served):
        base, _, _ = served
        status, body = http_post(base, "/analyze", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_is_400(self, served):
        base, _, _ = served
        status, body = http_post(base, "/analyze", b"")
        assert status == 400
        assert "empty" in body["error"]

    def test_unknown_paths_are_404(self, served):
        base, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope", timeout=30)
        assert excinfo.value.code == 404
        status, body = http_post(base, "/nope", {})
        assert status == 404

    def test_admission_refusal_is_503(self, served):
        base, service, _ = served
        # hold the service's only-ish slots so an uncached request queues...
        held = 0
        while service._slots.acquire(blocking=False):
            held += 1
        service._max_queue = 0  # ...and a zero queue bound means refusal
        try:
            status, body = http_post(base, "/analyze", {"algorithm": "kcore"})
            assert status == 503
            assert "service overloaded" in body["error"]
        finally:
            for _ in range(held):
                service._leave()


def raw_exchange(server, request: bytes, timeout: float = 5.0) -> bytes:
    """Send ``request`` verbatim and read until the *server* closes the
    socket; a server that neither answers nor closes within ``timeout``
    raises ``socket.timeout``."""
    with socket.create_connection(server.server_address[:2], timeout=timeout) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestMalformedContentLength:
    """A bad or oversized ``Content-Length`` is a caller mistake answered
    with one 400 — and, because the declared body is never read, the
    connection ends with that reply."""

    @pytest.mark.parametrize("declared", ["-1", "abc"])
    def test_unusable_content_length_is_400_and_closes(self, served, declared):
        _, _, server = served
        reply = raw_exchange(
            server,
            f"POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n".encode(),
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert "Content-Length" in error and "\n" not in error

    @pytest.mark.parametrize(
        "path, extra, status",
        [("/analyze", MAX_BODY_BYTES + 1, 400), ("/nope", 0, 404)],
        ids=["oversized", "unknown-path"],
    )
    def test_unread_body_does_not_desynchronise_the_connection(self, served, path, extra, status):
        base, _, server = served
        # the start of the "body" is itself a well-formed request: left
        # unread on a kept-alive socket it would be answered as a second one
        smuggled = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
        declared = len(smuggled) + extra
        reply = raw_exchange(
            server,
            f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n".encode()
            + smuggled,
        )
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert reply.count(b"HTTP/1.1 ") == 1  # one request, one response, then closed
        assert b"Connection: close" in reply.partition(b"\r\n\r\n")[0]
        assert http_get(base, "/health")[0] == 200  # a fresh connection is served


class TestSocketHandling:
    def test_a_body_that_never_arrives_is_400_and_closes(self, served, monkeypatch):
        base, _, server = served
        monkeypatch.setattr(GraphServiceHandler, "timeout", 0.2)
        # the client's deadline only bounds a regression (a handler that
        # waits forever); the server gives up after its own timeout
        reply = raw_exchange(
            server,
            b"POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n",
            timeout=30.0,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "did not arrive" in json.loads(body)["error"]
        assert http_get(base, "/health")[0] == 200  # a second client is served

    def test_accepted_sockets_have_nagle_disabled(self, served):
        base, _, server = served
        seen = []

        class Probe(GraphServiceHandler):
            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
                super().do_GET()

        server.RequestHandlerClass = Probe
        assert http_get(base, "/health")[0] == 200
        assert len(seen) == 1 and seen[0] != 0


class TestPoolWorkerKilledMidPlan:
    def test_killed_worker_is_503_then_the_pool_is_replaced(self, tmp_path):
        """What ``repro serve --parallel 2 --snapshot-cache DIR`` builds, under
        two concurrent clients.  Worker 0 is frozen (SIGSTOP) before they
        arrive, so whichever request wins the pool lease is provably
        mid-plan — blocked on that worker — when it is SIGKILLed."""
        max_inflight = 2
        session = GraphSession(
            make_db("deadserve"),
            snapshot_cache=str(tmp_path / "snaps"),
            backend="python",
            parallelism=2,
            warm_pool=True,
        )
        service = GraphService(session, session.graph(COAUTHOR_QUERY), max_inflight=max_inflight)
        server = make_server(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        serve_in_thread(server)
        victim = None
        try:
            assert http_post(base, "/analyze", {"algorithm": "triangles"})[0] == 200
            manager = session.pool_manager
            assert manager.counters["forks"] == 1
            victim = manager._pool._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)

            request = {"algorithms": ["closeness", "clustering"]}  # both sliced nodes
            replies = []
            clients = [
                threading.Thread(target=lambda: replies.append(http_post(base, "/analyze", request)))
                for _ in range(2)
            ]
            for client in clients:
                client.start()
            deadline = time.monotonic() + 30
            while not manager._busy.locked() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert manager._busy.locked(), "no request reached the pool"
            os.kill(victim.pid, signal.SIGKILL)
            for client in clients:
                client.join(timeout=60)
            assert not any(client.is_alive() for client in clients)

            # the lease holder failed retryably with the one-line message;
            # the other request got a re-forked pool and the right answer
            (failed_status, failed), (status, body) = sorted(replies, key=lambda r: -r[0])
            assert failed_status == 503
            assert failed["error"].startswith("parallel worker 0 died")
            assert "\n" not in failed["error"]
            assert status == 200
            report = decode_report(body)
            assert report.pool_starts == 1
            with GraphSession(make_db("deadserve"), backend="python") as inline:
                expected = inline.graph(COAUTHOR_QUERY).analyze().closeness().clustering().run()
            assert [(r.label, r.values) for r in report] == [(r.label, r.values) for r in expected]

            stats = http_get(base, "/stats")[1]
            assert stats["pool"]["forks"] == 2
            assert stats["admission"]["queue_depth"] == 0
            assert stats["admission"]["rejected"] == 0
            # no execution slot leaked with the failed plan
            held = 0
            while service._slots.acquire(blocking=False):
                held += 1
            for _ in range(held):
                service._leave()
            assert held == max_inflight
        finally:
            if victim is not None and victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)
            server.shutdown()
            server.server_close()
            session.close()


# --------------------------------------------------------------------------- #
# pool workers must not outlive their coordinator
# --------------------------------------------------------------------------- #
CHILD_ENV = child_env()

POOL_THEN_SLEEP = """
import sys, time
from repro.graph import ExpandedGraph
from repro.session.scheduler import PlanWorker
from repro.vertexcentric.parallel import ParallelSuperstepExecutor

graph = ExpandedGraph()
for v in range(6):
    graph.add_vertex(v)
    graph.add_edge(v, (v + 1) % 6)
csr = graph.snapshot()
csr.save(sys.argv[1])
first = ParallelSuperstepExecutor(2, csr.n, PlanWorker.factory(sys.argv[1], "python")).start()
second = ParallelSuperstepExecutor(3, csr.n, PlanWorker.factory(sys.argv[1], "python")).start()
print(*(proc.pid for pool in (first, second) for proc in pool._procs), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is still executing (a zombie nobody reaped has exited)."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    if int(stat.read().rpartition(")")[2].split()[1]) == pid:
                        found.append(int(entry))
            except OSError:  # exited while we looked
                pass
    return found


def _assert_all_exit(pids: list[int]) -> None:
    """The assertion is "exits", not "exits within t": the deadline only
    keeps a regression from hanging the suite."""
    deadline = time.monotonic() + 120
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _running(pid)]
    for pid in survivors:  # leave nothing behind on failure
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"pool workers {survivors} outlived their coordinator"


class TestWorkersDoNotOutliveTheirCoordinator:
    def test_sigkilled_coordinator_takes_its_pools_with_it(self, tmp_path):
        """Two pools in one process, the second forked while the first
        pool's pipes were open: every worker must still see EOF when the
        coordinator is SIGKILLed — no handler, no ``close()`` ran."""
        child = subprocess.Popen(
            [sys.executable, "-c", POOL_THEN_SLEEP, str(tmp_path / "pool.csr")],
            cwd=REPO_ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True,
        )  # fmt: skip
        try:
            workers = [int(pid) for pid in child.stdout.readline().split()]
            assert len(workers) == 5 and all(_running(pid) for pid in workers)
        finally:
            child.kill()
            child.wait()
        _assert_all_exit(workers)

    def test_sigterm_stops_serve_and_its_warm_pool(self, tmp_path):
        """``repro serve --parallel 2`` + SIGTERM: the process leaves
        ``serve_forever()`` through its ``finally`` (exit 0; -15 if the
        signal landed before the handler was installed) and no worker of its
        warm pool survives it."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--dataset", "dblp",
                "--scale", "0.1", "--port", "0", "--backend", "python", "--parallel", "2",
            ],
            cwd=REPO_ROOT, env=CHILD_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
        workers = []
        try:
            match = re.search(r"serving on (http://[\d.]+:\d+)", process.stdout.readline())
            assert match
            status, body = http_post(match.group(1), "/analyze", {"algorithm": "triangles"})
            assert status == 200 and decode_report(body).pool_starts == 1
            workers = _children(process.pid)
            assert len(workers) == 2
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=120)
            assert process.returncode in (0, -signal.SIGTERM), stderr
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.communicate()
        _assert_all_exit(workers)


class TestConcurrentClients:
    def test_many_threads_one_execution(self, served):
        """N concurrent identical requests: every response is bit-identical,
        and the cache shows exactly one miss once the dust settles."""
        base, service, _ = served
        payload = {"algorithm": "pagerank"}
        http_post(base, "/analyze", payload)  # warm the entry

        clients, responses, errors = 8, [], []
        barrier = threading.Barrier(clients, timeout=30)

        def client():
            try:
                barrier.wait()
                responses.append(http_post(base, "/analyze", payload))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(responses) == clients
        reference = None
        for status, body in responses:
            assert status == 200
            report = decode_report(body)
            assert report.cache["hits"] == 1
            values = repr(report["pagerank"].values)
            reference = reference or values
            assert values == reference
        assert service.cache.stats()["misses"] == 1
        assert service.cache.stats()["hits"] == clients

    def test_concurrent_distinct_requests_all_answered(self, served):
        base, _, _ = served
        names = ["degree", "kcore", "triangles", "clustering", "components"]
        responses = {}
        lock = threading.Lock()

        def client(name):
            status, body = http_post(base, "/analyze", {"algorithm": name})
            with lock:
                responses[name] = (status, body)

        threads = [threading.Thread(target=client, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert set(responses) == set(names)
        for name, (status, body) in responses.items():
            assert status == 200, name
            assert decode_report(body)[name].values is not None


class TestBoundedLifetime:
    def test_max_requests_shuts_the_server_down(self, tmp_path):
        session = GraphSession(make_db(), backend="python")
        service = GraphService(session, session.graph(COAUTHOR_QUERY))
        server = make_server(service, max_requests=2)
        host, port = server.server_address[:2]
        thread = serve_in_thread(server)
        try:
            base = f"http://{host}:{port}"
            assert http_get(base, "/health")[0] == 200
            assert http_get(base, "/health")[0] == 200
            thread.join(timeout=30)
            assert not thread.is_alive(), "server should stop after max_requests"
        finally:
            server.server_close()
            session.close()


@pytest.mark.slow
class TestServeCommand:
    def test_cli_serve_smoke(self, tmp_path):
        """End-to-end: ``python -m repro.cli serve`` in a subprocess, a
        client exercising analyze twice (miss then hit) plus health, and a
        clean exit via --max-requests."""
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--dataset",
                "dblp",
                "--scale",
                "0.1",
                "--port",
                "0",
                "--max-requests",
                "3",
                "--backend",
                "python",
                "--snapshot-cache",
                str(tmp_path / "snaps"),
            ],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            boot_line = process.stdout.readline()
            match = re.search(r"serving on (http://[\d.]+:\d+)", boot_line)
            assert match, f"unexpected boot line: {boot_line!r}"
            base = match.group(1)

            status, body = http_get(base, "/health")
            assert status == 200 and body["status"] == "ok"
            first = http_post(base, "/analyze", {"algorithm": "pagerank"})
            second = http_post(base, "/analyze", {"algorithm": "pagerank"})
            assert first[0] == 200 and second[0] == 200
            report_one = decode_report(first[1])
            report_two = decode_report(second[1])
            assert report_one.cache["misses"] == 1
            assert report_two.cache["hits"] == 1
            assert repr(report_two["pagerank"].values) == repr(
                report_one["pagerank"].values
            )

            stdout, stderr = process.communicate(timeout=60)
            assert process.returncode == 0, stderr
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.communicate()
