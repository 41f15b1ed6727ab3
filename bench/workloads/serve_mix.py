"""``serve_mix`` — reads beside writes on one result cache.

``repro serve --incremental`` runs as a child process over the DBLP-shaped
tables.  A **closed loop of two clients**, one persistent HTTP/1.1
connection each, issues a seeded stream: 80 % ``POST /analyze`` drawn with a
1/rank skew from eight hot requests, 15 % never-repeated misses (one batch of
``pagerank`` with a fresh ``damping`` and sampled ``betweenness`` with a fresh
``seed``), 5 % ``POST /edges`` between existing vertices.  Hits exercise
``service.http`` / ``codec`` / ``cache`` and no kernel; misses add admission,
compile and kernels; writes append to the journal, patch or evict cached
results, and turn the next hot request on a non-maintainable algorithm into
a miss (a *refill*) — so a hit-path gain paid for by the write path shows.

Answer tiers: *cold* = ``serve`` spawn to first answer; *warm* = designed
miss (graph loaded, answer computed); *hot* = cache hit; *change* = write.
Requests are classed by the response's own cache counters.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import subprocess
import threading
import time
from pathlib import Path
from typing import Any

from bench import check, datagen
from bench.common import (
    ROOT,
    Ctx,
    Samples,
    Speed,
    child_env,
    cli_command,
    dir_bytes,
    fresh_dir,
    median,
    metric,
    vm_hwm_mb,
)
from bench.trace import Recorder, plan_runs_traced
from bench.workloads.analyze_batch import prepare

NAME = "serve_mix"
DESIGNATED_PHASE = "hit"
CLIENTS = 2
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
#: converging termination contract, so a patched PageRank and a cold one sit
#: within 1e-9 of each other (the maintainers' documented tolerance regime)
PAGERANK = {"tolerance": 1e-10, "max_iterations": 500}
HOT = (
    ("pagerank", PAGERANK),
    ("components", {}),
    ("bfs", {"source": 0}),
    ("degree", {}),
    ("kcore", {}),
    ("triangles", {}),
    ("clustering", {}),
    ("label_propagation", {}),
)
HOT_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(HOT))]
MIX = (("hot", 0.80), ("miss", 0.15), ("write", 0.05))
BETWEENNESS_SAMPLE = 32
#: result-cache entries.  Every never-repeated PageRank stays cached and is
#: *patched* by every later write, so at the default 128 entries a write keeps
#: getting slower for the first ~60 misses — longer than the measured window.
#: 32 entries fill (and start evicting) inside the warm-up, so the window sees
#: the steady state a long-running service is in.
CACHE_SIZE = 32


# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` child; always reaped, also on failure."""

    def __init__(self, data: Path, cache: Path) -> None:
        args = ["serve", "--data", str(data), "--query-file", str(data / "query.dl")]
        args += ["--extract-engine", "auto", "--incremental", "--port", "0"]
        args += ["--snapshot-cache", str(cache), "--cache-size", str(CACHE_SIZE)]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            cli_command(*args),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(ROOT),
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT)
            line = self.process.stdout.readline().decode("utf-8") if ready else ""
            if "serving on http://" not in line:
                raise RuntimeError(f"repro serve did not come up: {line!r}")
            host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
            self.address = (host, int(port))
            self.boot_seconds = time.perf_counter() - self.started
        except BaseException:
            self.close()
            raise

    def connect(self) -> "Client":
        return Client(self.address)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT)

    def request(self, method: str, path: str, payload: Any = None) -> tuple[int, Any, int]:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body, headers)
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), len(raw)

    def analyze(self, requests: list[tuple[str, dict]]) -> tuple[int, Any, int]:
        payload = {"algorithms": [{"name": name, "params": params} for name, params in requests]}
        return self.request("POST", "/analyze", payload)

    def close(self) -> None:
        self.connection.close()


# --------------------------------------------------------------------------- #
class Stream:
    """One client's seeded request stream."""

    def __init__(self, seed: int, client: int, vertices: int) -> None:
        self.rng = random.Random(f"{seed}/{client}")
        self.client = client
        self.vertices = vertices
        self.fresh = 0

    def next(self, kind: str | None = None) -> tuple[str, str, Any]:
        """``(kind, path, payload)`` of the next request (of the mix's choice
        unless ``kind`` is given)."""
        kind = kind or self.rng.choices([k for k, _ in MIX], [w for _, w in MIX])[0]
        if kind == "hot":
            name, params = self.rng.choices(HOT, HOT_WEIGHTS)[0]
            return kind, "/analyze", {"algorithm": name, "params": params}
        if kind == "miss":
            self.fresh += 1
            ticket = self.client * 1_000_000 + self.fresh
            batch = [
                {"name": "pagerank", "params": {"damping": 0.5 + ticket * 1e-8}},
                {
                    "name": "betweenness",
                    "params": {"seed": ticket, "sample_size": min(BETWEENNESS_SAMPLE, self.vertices)},
                },
            ]
            return kind, "/analyze", {"algorithms": batch}
        source = self.rng.randrange(self.vertices)
        target = (source + 1 + self.rng.randrange(self.vertices - 1)) % self.vertices
        return kind, "/edges", {"source": source, "target": target}


def classify(kind: str, status: int, body: Any) -> tuple[str, bool]:
    """The request's class, by the response's own counters, and whether it
    succeeded.  Any non-200 (a 503 refusal included) is a failure."""
    if status != 200:
        return kind, False
    if kind == "write":
        return "write", "content_hash" in body
    cache = body.get("cache") or {}
    if kind == "miss":
        return "miss", cache.get("hits") == 0 and cache.get("misses") == 2
    return ("hit" if cache.get("misses") == 0 else "refill"), len(body.get("results", ())) == 1


def drive(
    server: Server, seed: int, vertices: int, warmup: float, measured: float
) -> tuple[list[dict[str, Any]], list[tuple[int, int]]]:
    """The closed loop: ``CLIENTS`` threads, each sending its next request
    only when the previous one is answered.  Returns the measured-window
    records and every applied write in completion order."""
    records: list[list[dict[str, Any]]] = [[] for _ in range(CLIENTS)]
    writes: list[tuple[float, int, int]] = []
    writes_lock = threading.Lock()
    errors: list[BaseException] = []
    begin = time.perf_counter()
    open_at, close_at = begin + warmup, begin + warmup + measured

    def client_loop(index: int) -> None:
        client = server.connect()
        stream = Stream(seed, index, vertices)
        try:
            # every hot request once, so the measured window starts on a full cache
            for name, params in HOT:
                client.analyze([(name, params)])
            while True:
                sent = time.perf_counter()
                if sent >= close_at:
                    break
                kind, path, payload = stream.next()
                status, body, size = client.request("POST", path, payload)
                done = time.perf_counter()
                if kind == "write" and status == 200:
                    with writes_lock:
                        writes.append((done, payload["source"], payload["target"]))
                if sent >= open_at and done <= close_at:
                    cls, ok = classify(kind, status, body)
                    records[index].append(
                        {"class": cls, "ok": ok, "ms": (done - sent) * 1e3, "status": status, "bytes": size}
                    )
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=warmup + measured + 2 * REQUEST_TIMEOUT)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load-generator thread did not finish")
    flat = [r for per_client in records for r in per_client]
    return flat, [(u, v) for _, u, v in sorted(writes)]


def at_reference_speed(records: list[dict[str, Any]], slowdown: float) -> None:
    """Add ``ms_ref`` to every record: its latency at the reference host
    speed.  A request's latency is transport plus work.  Transport — what the
    wire costs whatever the answer, measured in the same window as the p50 of
    the cache hits, which do no work to speak of — does not depend on how fast
    the host computes; only the excess over it is scaled."""
    transport = median([r["ms"] for r in records if r["class"] == "hit"])
    for record in records:
        excess = record["ms"] - transport
        record["ms_ref"] = transport + excess / slowdown if excess > 0 else record["ms"]


def final_answers(client: Client) -> dict[str, Any]:
    """The service's current answers to the two maintainable hot requests."""
    from repro.service import decode_report

    status, body, _ = client.analyze([("pagerank", PAGERANK), ("components", {})])
    if status != 200:
        raise RuntimeError(f"final /analyze answered {status}: {body}")
    return {result.algorithm: result.values for result in decode_report(body)}


def cold_answers(data: Path, writes: list[tuple[int, int]]) -> tuple[dict[str, Any], int]:
    """A cold in-process session on the final edge set, and its CSR edges."""
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    session = GraphSession(read_database(data), extract_engine="auto")
    handle = session.graph(datagen.read_query(data))
    for source, target in writes:
        handle.graph.add_edge(source, target)
    report = handle.analyze().pagerank(**PAGERANK).components().run()
    return {r.algorithm: r.values for r in report}, handle.snapshot().num_edges


# --------------------------------------------------------------------------- #
def measure(ctx: Ctx) -> dict[str, dict[str, Any]]:
    data, setup = prepare(ctx)
    vertices = datagen.dblp_args(ctx.scale)["authors"]
    ops = ctx.ops
    warmup, measured = 0.1 * ctx.seconds, 0.6 * ctx.seconds

    speed, boots = Speed(), Samples()
    for index in range(ctx.repeats(7)):
        before = speed.open()
        with Server(data, fresh_dir(NAME, f"boot{index}")) as server:
            client = server.connect()
            try:
                status, _, _ = client.analyze([("pagerank", PAGERANK)])
            finally:
                client.close()
            seconds = time.perf_counter() - server.started
        boots.add(seconds, speed.close(before))
        ops.record(status == 200, f"first answer after boot was {status}")

    cache = fresh_dir(NAME, "cache")
    with Server(data, cache) as server:
        # host speed over the window: chunks right before and right after it
        # (chunks *during* it would measure the load generator's own
        # competition for the two cores, not the host)
        before = speed.open()
        records, writes = drive(server, ctx.seed, vertices, warmup, measured)
        slowdown = speed.close(before)
        client = server.connect()
        try:
            hot = final_answers(client)
            _, stats, _ = client.request("GET", "/stats")
        finally:
            client.close()
        rss = server.peak_rss_mb()
    store_bytes = dir_bytes(cache)

    for record in records:
        ops.record(record["ok"], f"{record['class']} request failed (HTTP {record['status']})")
    ops.record(stats["admission"]["rejected"] == 0, "the service refused requests with 503")
    cold, csr_edges = cold_answers(data, writes)
    ops.record_all(check.final_state_equal(hot, cold))

    good = [record for record in records if record["ok"]]
    by_class: dict[str, list[dict[str, Any]]] = {"hit": [], "miss": [], "write": [], "refill": []}
    for record in good:
        by_class[record["class"]].append(record)
    for cls in ("hit", "miss", "write"):
        if not by_class[cls]:
            raise RuntimeError(f"no successful {cls} request inside the measured window")
    at_reference_speed(good, slowdown)

    def latency(cls: str) -> dict[str, Any]:
        samples = [r["ms_ref"] for r in by_class[cls]]
        entry = metric(median(samples), "ms", samples)
        entry["raw"] = median([r["ms"] for r in by_class[cls]])
        entry["host_slowdown"] = slowdown
        return entry

    # in a closed loop the clients' latencies add up to CLIENTS x the window,
    # so the same request sequence at reference speed would have taken
    # sum(ms_ref) / CLIENTS
    rate = metric(len(good) * CLIENTS / (sum(r["ms_ref"] for r in good) / 1e3), "1/s")
    rate["raw"] = len(good) / measured
    rate["host_slowdown"] = slowdown
    return {
        "setup_s": setup,
        "cold_answer_s": boots.metric("s"),
        "warm_answer_ms": latency("miss"),
        "hot_answer_ms": latency("hit"),
        "change_answer_ms": latency("write"),
        "throughput_ops_s": rate,
        "peak_rss_mb": metric(rss, "MB"),
        "store_bytes_per_edge": metric(store_bytes / csr_edges, "B/edge"),
    }


# --------------------------------------------------------------------------- #
def traced(ctx: Ctx, rec: Recorder) -> dict[str, Any]:
    """The same mix from one client against an in-process server, with spans
    at every boundary the request crosses: wire (``service.http``), the
    service object (``service.app`` + cache), the plan compiler and kernels
    under it, the maintainers a write runs, and the codec on the way out.
    Returns the per-request records plus the cache's own counters."""
    import repro.incremental
    import repro.service.http as wire
    from repro.relational.csv_io import read_database
    from repro.service import GraphService, make_server, serve_in_thread
    from repro.service.cache import result_key
    from repro.session import GraphSession

    data, _ = prepare(ctx, repeats=1)
    vertices = datagen.dblp_args(ctx.scale)["authors"]
    session = GraphSession(
        read_database(data), extract_engine="auto", snapshot_cache=str(fresh_dir(NAME, "trace-cache"))
    )
    handle = session.graph(datagen.read_query(data))
    service = GraphService(session, handle, incremental=True, cache_size=CACHE_SIZE)
    server = make_server(service)
    thread = serve_in_thread(server)
    address = server.server_address[:2]
    client = Client(address)
    stream = Stream(ctx.seed, 0, vertices)
    maintainers = dict(repro.incremental.MAINTAINERS)
    records: list[dict[str, Any]] = []
    max_gap = 0.0
    try:
        for name, params in HOT:
            client.analyze([(name, params)])
        for name, maintain in maintainers.items():
            repro.incremental.MAINTAINERS[name] = rec.wrap(maintain, f"maintain {name}", "incremental")
        with plan_runs_traced(rec), rec.patched(
            service, "analyze", "service.analyze", "service"
        ), rec.patched(service, "add_edge", "service.add_edge", "service"), rec.patched(
            wire, "encode_report", "encode_report", "codec"
        ), rec.patched(wire, "dumps", "dumps", "codec"), rec.patched(
            session.store, "fetch", "store.fetch", "store"
        ):
            answered = time.perf_counter()
            # one request of every kind first: a short pass must not end
            # without a miss or a write to measure
            forced = [kind for kind, _ in MIX]
            for index in range(ctx.repeats(80)):
                kind, path, payload = stream.next(forced[index] if index < len(forced) else None)
                with rec.span(f"{kind} request", "http") as span:
                    rec.adopt = span
                    sent = time.perf_counter()
                    status, body, size = client.request("POST", path, payload)
                    done = time.perf_counter()
                    rec.adopt = None
                max_gap = max(max_gap, sent - answered)
                cls, ok = classify(kind, status, body)
                ctx.ops.record(ok, f"traced {cls} request failed (HTTP {status})")
                records.append({"class": cls, "ok": ok, "ms": (done - sent) * 1e3, "bytes": size})
                if span is not None:
                    rec.spans[span]["phase"] = cls
                rec.count(f"requests.{cls}")
                rec.count("response_bytes", size)
                answered = time.perf_counter()
        cache = service.cache.stats()
        rejected = service.rejected
        fresh = []
        for _ in range(10):
            one_shot = Client(address)
            try:
                sent = time.perf_counter()
                one_shot.analyze([("degree", {})])
                fresh.append((time.perf_counter() - sent) * 1e3)
            finally:
                one_shot.close()
        key = result_key(handle.snapshot().content_hash, "components", {}, session.backend.name)
        started = time.perf_counter()
        for _ in range(2000):
            service.cache.get(key)
        get_us = (time.perf_counter() - started) / 2000 * 1e6
    finally:
        repro.incremental.MAINTAINERS.update(maintainers)
        client.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        session.close()
    return {
        "records": records,
        "cache": cache,
        "rejected": rejected,
        "fresh_ms": fresh,
        "cache_get_us": get_us,
        "max_gap_ms": max_gap * 1e3,
    }
