"""Stdlib HTTP front-end for :class:`~repro.service.GraphService`.

Deliberately boring: a :class:`http.server.ThreadingHTTPServer` (one thread
per connection — exactly the concurrency the session layer's locks were
hardened for) dispatching five routes onto the service object:

    GET  /health      liveness + served-graph identity
    GET  /algorithms  the request catalogue (names, params, defaults)
    GET  /stats       cache / admission / warm-pool counters
    POST /analyze     run (or serve from cache) an algorithm batch
    POST /edges       add an edge (moves the snapshot's cache epoch)

Error contract, mirroring the CLI's: caller mistakes
(:class:`~repro.exceptions.UsageError` and friends) become a 4xx JSON body
``{"error": "<one-line message>"}`` — never a traceback;
:class:`~repro.exceptions.ServiceOverloadedError` and
:class:`~repro.exceptions.WorkerDiedError` (a pool worker was killed under
the request) become 503 so clients know to back off and retry; only a
genuine server bug produces a 500.  A body that does not arrive within the
handler's ``timeout`` is a 400 and the connection closes with it.

No new dependencies: everything here is ``http.server`` + ``json``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.exceptions import (
    GraphGenError,
    ServiceOverloadedError,
    UsageError,
    WorkerDiedError,
)
from repro.service.codec import dumps, encode_report, loads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import GraphService

#: request body size guard (a graph service request is a few hundred bytes;
#: anything megabyte-sized is a mistake or abuse)
MAX_BODY_BYTES = 1 << 20


class GraphServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`GraphService`.

    ``max_requests`` (None = unlimited) makes the server shut itself down
    after serving that many requests — the smoke tests' way of running a
    real socket server with a bounded lifetime.
    """

    daemon_threads = True

    def __init__(self, address, service: "GraphService", max_requests: int | None = None):
        super().__init__(address, GraphServiceHandler)
        self.service = service
        self.max_requests = max_requests
        self._served = 0
        self._served_lock = threading.Lock()

    def count_request(self) -> None:
        if self.max_requests is None:
            return
        with self._served_lock:
            self._served += 1
            done = self._served >= self.max_requests
        if done:
            # shutdown() blocks until serve_forever() exits, so it must not
            # run on the request thread that serve_forever is waiting on
            threading.Thread(target=self.shutdown, daemon=True).start()


class GraphServiceHandler(BaseHTTPRequestHandler):
    """Route translator: HTTP in, service method, JSON out."""

    server: GraphServiceServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: a reply goes out as two writes
    #: (head, body), and with Nagle's algorithm on, the body waits for the
    #: client's delayed ACK of the head — ≈ 40 ms on every keep-alive answer
    disable_nagle_algorithm = True
    #: seconds a socket read or write may stall: a client whose declared body
    #: never arrives, or an idle keep-alive connection, gives its handler
    #: thread back instead of holding it forever
    timeout = 60

    # -- plumbing -------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr per-request log line (the service's
        counters are the observability surface)."""

    def _reply(self, status: int, payload: Any) -> None:
        body = dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.server.count_request()

    def _read_body(self) -> Any:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # whatever body follows stays unread, so the connection must end
            # with this reply: on a kept-alive socket the leftover bytes
            # would be parsed as the next request line
            self.close_connection = True
            raise UsageError(
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}] (got {declared!r})"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # a partial body may be buffered
            raise UsageError(
                f"request body did not arrive within {self.timeout} s "
                f"(Content-Length: {length})"
            ) from None
        if not raw:
            raise UsageError("request body is empty; send a JSON object")
        try:
            return loads(raw)
        except ValueError as exc:
            raise UsageError(f"request body is not valid JSON: {exc}") from None

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except (ServiceOverloadedError, WorkerDiedError) as exc:
            # the server's condition, not the caller's mistake: retryable
            self._reply(503, {"error": str(exc)})
        except GraphGenError as exc:
            # one-line caller-mistake message, never a traceback — the same
            # contract the CLI keeps on stderr
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - genuine server bug
            self._reply(500, {"error": f"internal error: {exc}"})
        else:
            self._reply(status, payload)

    # -- routes ---------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        routes = {
            "/health": service.health,
            "/algorithms": service.algorithms,
            "/stats": service.stats,
        }
        method = routes.get(self.path)
        if method is None:
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch(lambda: (200, method()))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        if self.path == "/analyze":
            self._dispatch(
                lambda: (200, encode_report(service.analyze(self._read_body())))
            )
        elif self.path == "/edges":
            self._dispatch(lambda: (200, service.add_edge(self._read_body())))
        else:
            self.close_connection = True  # the body stays unread, as above
            self._reply(404, {"error": f"unknown path {self.path!r}"})


def make_server(
    service: "GraphService",
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_requests: int | None = None,
) -> GraphServiceServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port —
    read the real one from ``server.server_address``."""
    return GraphServiceServer((host, port), service, max_requests=max_requests)


def serve_in_thread(server: GraphServiceServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests and the CLI's
    foreground loop both build on this); returns the started thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
