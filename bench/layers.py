"""The traced run: where a workload's time goes, and what each layer costs.

``--trace 1`` does two things and prints every per-layer metric of
``BENCHMARK.json``:

1. **The workload's own pass.**  Each workload module has a ``traced()``
   that repeats its operations once, in-process, stage by stage, under the
   span recorder of :mod:`bench.trace`.  Self time per layer over the
   workload's *designated phase* becomes the ``share.<layer>_pct`` metrics
   (does the layer the workload is meant to stress really hold its wall?),
   and running the same pass with the recorder off gives
   ``trace.overhead_pct``.
2. **A layer sweep.**  Every layer's public functions are timed on a small
   probe input generated from the same seed (DBLP shape, 240 authors; a
   4 000-vertex ring), except extraction, which runs on the workload's own
   CSV directory, and the layers the workload itself stresses, which are read
   from its own pass.  So a per-layer number means the same thing on every
   workload unless it is that workload's own layer.

All timings here are medians of a few calls; counts are exact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from bench import check, datagen
from bench.common import OUT, Ctx, fresh_dir, median, metric, percentile
from bench.trace import Recorder, kernel_seconds
from bench.workloads import analyze_batch, mutate_refresh, serve_mix

PROBE_AUTHORS = 240
PROBE_RING = 4_000
LAYERS = (
    "dsl",
    "planner",
    "relational",
    "extractor",
    "dedup",
    "snapshot",
    "store",
    "compiler",
    "kernels",
    "incremental",
    "service",
    "codec",
    "http",
    "bench",
)
REPRESENTATIONS = ("exp", "cdup", "dedup1", "dedup2", "bitmap")


# --------------------------------------------------------------------------- #
def clock(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[float, Any]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def steady(fn: Callable[[], Any], budget: float = 0.25, most: int = 7) -> tuple[float, Any]:
    """Median seconds of ``fn()`` over up to ``most`` calls or ``budget``
    seconds of calling, whichever ends first (always at least one call)."""
    samples, spent, result = [], 0.0, None
    while len(samples) < most and (not samples or spent < budget):
        seconds, result = clock(fn)
        samples.append(seconds)
        spent += seconds
    return median(samples), result


def med(samples: list[float]) -> float:
    return median(samples) if samples else 0.0


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #
def traced_run(ctx: Ctx, module: Any) -> dict[str, dict[str, Any]]:
    # import the program up front, so the first of the two passes below does
    # not pay the imports and read as tracing overhead
    import repro.cli  # noqa: F401
    import repro.incremental  # noqa: F401
    import repro.service  # noqa: F401
    from repro.graph.backend import get_backend

    get_backend()  # and the kernel backend's own imports (numpy)
    rec = Recorder(f"{ctx.workload}/seed{ctx.seed}")
    traced_wall, own = clock(module.traced, ctx, rec)
    untraced_wall, _ = clock(module.traced, ctx, Recorder(rec.run_id, enabled=False))

    values: dict[str, tuple[float, str]] = {}
    shares = rec.shares(module.DESIGNATED_PHASE)
    for layer in LAYERS:
        values[f"share.{layer}_pct"] = (shares.get(layer, 0.0), "%")
    values["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")

    sweep(ctx, module, rec, own, values)
    OUT.mkdir(parents=True, exist_ok=True)
    rec.dump(str(OUT / f"trace_{ctx.workload}.json"))
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def sweep(ctx: Ctx, module: Any, rec: Recorder, own: Any, values: dict[str, tuple[float, str]]) -> None:
    probe = Ctx("serve_mix", ctx.seed, ctx.seconds / 2, ctx.scale * PROBE_AUTHORS / datagen.DBLP_AUTHORS)
    probe.ops = ctx.ops
    dblp, _ = analyze_batch.prepare(probe, repeats=1)
    if module.NAME == "mutate_refresh":
        csv_dir = dblp
    else:
        csv_dir, _ = module.prepare(ctx, repeats=1)
    probe_extraction(ctx, csv_dir, values)
    handle = probe_graph(ctx, dblp, values)
    probe_store(ctx, handle, values)
    probe_plans(ctx, dblp, handle, values)
    probe_kernels(ctx, dblp, values)
    probe_supersteps(handle, values)

    # the serving and mutation layers: the workload's own pass when it is
    # that workload, the same pass at probe size otherwise
    if module.NAME == "serve_mix":
        serve_rec, serve_own = rec, own
    else:
        serve_rec = Recorder("probe/serve")
        serve_own = serve_mix.traced(probe, serve_rec)
    service_metrics(serve_rec, serve_own, values)
    with serve_mix.Server(dblp, fresh_dir("layers", "boot")) as server:
        values["http.boot_s"] = (server.boot_seconds, "s")

    if module.NAME == "mutate_refresh":
        ring_rec, ring_own = rec, own
    else:
        ring_rec = Recorder("probe/ring")
        ring_own = mutate_refresh.traced(
            ctx, ring_rec, vertices=PROBE_RING, limits={"small": 10, "removal": 3, "bulk": 2}
        )
    incremental_metrics(ring_rec, ring_own, values)


# --------------------------------------------------------------------------- #
# dsl, planner, relational, extractor — on the workload's CSV directory
# --------------------------------------------------------------------------- #
def probe_extraction(ctx: Ctx, data: Path, values: dict[str, tuple[float, str]]) -> None:
    from repro.core import GraphGen
    from repro.dsl import parse
    from repro.relational.csv_io import read_database

    query = datagen.read_query(data)
    seconds, db = clock(read_database, data)
    values["relational.csv_load_s"] = (seconds, "s")
    values["relational.mirror_load_s"] = (clock(db.sqlite_backend)[0], "s")
    values["relational.rows"] = (db.total_rows(), "count")
    seconds, spec = steady(lambda: parse(query))
    values["dsl.parse_s"] = (seconds, "s")
    seconds, plan = steady(lambda: GraphGen(db, extract_engine="auto").plan(spec))
    values["planner.plan_s"] = (seconds, "s")
    values["planner.large_output_joins"] = (
        sum(d.is_large_output for edge in plan.edge_plans for d in edge.decisions),
        "count",
    )
    engine_seconds, reports = {}, {}
    for engine in ("python", "sqlite", "pushdown", "auto"):
        extractor = GraphGen(db, extract_engine=engine)
        engine_seconds[engine], (_, reports[engine]) = steady(
            lambda: extractor.extract_condensed(spec), budget=0.4, most=5
        )
        values[f"extract.{engine}_s"] = (engine_seconds[engine], "s")
    fastest = min(engine_seconds[e] for e in ("python", "sqlite", "pushdown"))
    values["extract.auto_regret"] = (engine_seconds["auto"] / fastest, "ratio")
    auto = reports.pop("auto")
    values["extract.condensed_edges"] = (auto.condensed_edges, "count")
    values["extract.virtual_nodes"] = (auto.virtual_nodes, "count")
    values["extract.rows_per_edge"] = (db.total_rows() / max(1, auto.condensed_edges), "ratio")
    ctx.ops.record_all(check.engines_agree(reports))


# --------------------------------------------------------------------------- #
# dedup + the five representations + snapshot encode — on the probe graph
# --------------------------------------------------------------------------- #
def probe_graph(ctx: Ctx, dblp: Path, values: dict[str, tuple[float, str]]) -> Any:
    from repro.dedup import (
        DedupState,
        deduplicate_dedup1,
        deduplicate_dedup2,
        flatten_to_single_layer,
        preprocess_bitmap,
    )
    from repro.dedup.expand import expand
    from repro.graph import CDupGraph, CSRGraph, representation_stats
    from repro.graph.shard_store import snapshot_payload_bytes
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    session = GraphSession(read_database(dblp), extract_engine="auto")
    handle = session.graph(datagen.read_query(dblp))
    condensed = handle.extraction.condensed
    values["dedup.preprocess_s"] = (
        steady(lambda: DedupState(flatten_to_single_layer(condensed)))[0],
        "s",
    )
    builders = {
        "exp": lambda: expand(condensed),
        "cdup": lambda: CDupGraph(condensed),
        "dedup1": lambda: deduplicate_dedup1(condensed),
        "dedup2": lambda: deduplicate_dedup2(condensed),
        "bitmap": lambda: preprocess_bitmap(condensed),
    }
    reference = None
    for name in REPRESENTATIONS:
        seconds, graph = steady(builders[name], budget=0.3, most=3)
        if name != "cdup":
            values[f"dedup.{name}_s"] = (seconds, "s")
        stats = representation_stats(graph)
        values[f"repr.{name}.edges_stored"] = (stats.edges, "count")
        values[f"repr.{name}.bytes"] = (stats.estimated_bytes, "B")
        # every representation answers the same degree question (DEDUP-2
        # drops self-loops by design, so it is compared on vertex count only)
        degrees = {v: graph.degree(v) for v in graph.get_vertices()}
        if reference is None:
            reference = degrees
        same = degrees.keys() == reference.keys() and (name == "dedup2" or degrees == reference)
        ctx.ops.record(same, f"representation {name} disagrees with exp on degrees")
    graph = CDupGraph(condensed)
    seconds, csr = steady(lambda: CSRGraph.from_graph(graph), most=3)
    values["snapshot.encode_s"] = (seconds, "s")
    values["snapshot.bytes"] = (snapshot_payload_bytes(csr), "B")
    values["snapshot.expansion_ratio"] = (csr.num_edges / max(1, condensed.num_condensed_edges), "ratio")
    return handle


# --------------------------------------------------------------------------- #
# snapshot_store, shard_store, delta
# --------------------------------------------------------------------------- #
def probe_store(ctx: Ctx, handle: Any, values: dict[str, tuple[float, str]]) -> None:
    from repro.graph.backend import get_backend
    from repro.graph.delta import DeltaJournal, DeltaOverlay, JournaledGraph
    from repro.graph.shard_store import load_sharded_snapshot, save_sharded_snapshot
    from repro.graph.snapshot_store import SnapshotStore, load_snapshot, save_snapshot
    from repro.dedup.expand import expand

    directory = fresh_dir("layers", "store")
    csr = handle.snapshot()
    path = directory / "probe.csr"
    values["store.write_s"] = (steady(lambda: save_snapshot(csr, path), most=5)[0], "s")
    seconds, mapped = steady(lambda: load_snapshot(path, mmap=True, verify=False), most=5)
    values["store.load_mmap_s"] = (seconds, "s")
    seconds, verified = steady(lambda: load_snapshot(path, mmap=False, verify=True), most=5)
    values["store.load_verified_s"] = (seconds, "s")
    ctx.ops.record(
        verified.content_hash == csr.content_hash and mapped.num_edges == csr.num_edges,
        "a stored snapshot did not load back as written",
    )
    manifest = directory / "probe.csrm"
    values["store.shard_write_s"] = (
        steady(lambda: save_sharded_snapshot(csr, manifest, shards=2), most=5)[0],
        "s",
    )
    seconds, sharded = steady(lambda: load_sharded_snapshot(manifest), most=5)
    values["store.shard_load_s"] = (seconds, "s")
    ctx.ops.record(sharded.content_hash == csr.content_hash, "a sharded snapshot changed its hash")

    # journal: append + sync one record at a time, as a served write does
    ids = list(csr.external_ids)
    pairs = [(ids[i], ids[(i * 7 + 3) % len(ids)]) for i in range(min(400, len(ids)))]
    journal = DeltaJournal(csr.content_hash)
    sidecar = directory / "probe.csrd"
    started = time.perf_counter()
    for pair in pairs:
        journal.append("+", pair)
        journal.sync(sidecar)
    values["store.journal_append_us"] = ((time.perf_counter() - started) / len(pairs) * 1e6, "us")
    values["store.journal_bytes_per_edge"] = (sidecar.stat().st_size / len(pairs), "B/edge")
    values["store.merge_s"] = (
        steady(lambda: DeltaOverlay(journal.records).materialize(csr, backend=get_backend()), most=5)[0],
        "s",
    )

    # compaction: a journal past a quarter of the base edges folds into a new base
    graph = JournaledGraph(expand(handle.extraction.condensed))
    store = SnapshotStore(directory / "compact")
    base, _ = store.fetch(graph, "probe")
    threshold = base.num_edges * store.compact_fraction
    for u, v in ((u, v) for u in ids for v in ids if u != v):
        if len(graph.journal.records) > threshold:
            break
        if not graph.exists_edge(u, v):
            graph.add_edge(u, v)
    seconds, (_, outcome) = clock(store.fetch, graph, "probe")
    values["store.compact_s"] = (seconds, "s")
    values["store.compactions"] = (graph.journal.compactions, "count")
    ctx.ops.record(outcome == "compact", f"an over-threshold journal was not compacted ({outcome})")


# --------------------------------------------------------------------------- #
# compiler + scheduler
# --------------------------------------------------------------------------- #
def probe_plans(ctx: Ctx, dblp: Path, handle: Any, values: dict[str, tuple[float, str]]) -> None:
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession
    from repro.session.compiler import CompilerCounters

    analyze_batch.batch_plan(handle).run()  # derived views built, caches warm
    before = CompilerCounters.sweep_traversals
    samples, report = [], None
    for _ in range(3):
        wall, report = clock(analyze_batch.batch_plan(handle).run)
        samples.append(wall - kernel_seconds(report))
    values["compiler.compile_s"] = (median(samples), "s")
    values["compiler.dag_nodes"] = (report.nodes_computed, "count")
    values["compiler.sweep_traversals"] = ((CompilerCounters.sweep_traversals - before) // 3, "count")
    serial = {r.algorithm: r.values for r in report}

    store = fresh_dir("layers", "pool")
    with GraphSession(
        read_database(dblp), extract_engine="auto", parallelism=2, snapshot_cache=str(store)
    ) as session:
        parallel = session.graph(datagen.read_query(dblp))
        path = parallel.persist()
        csr = parallel.snapshot()
        started = time.perf_counter()
        pool, release = session.acquire_pool(csr.n, path, csr.content_hash, session.backend.name)
        values["scheduler.pool_start_s"] = (time.perf_counter() - started, "s")
        release()
        wall, report = clock(analyze_batch.batch_plan(parallel).run)
        values["scheduler.parallel2_batch_s"] = (wall, "s")
        values["scheduler.pool_starts"] = (report.pool_starts, "count")
    for result in report:
        if result.algorithm == "pagerank" and result.engine == "superstep":
            continue  # fixed-iteration superstep PageRank: low-order digits differ by design
        ctx.ops.record(
            check.values_equal(result.values, serial[result.algorithm]),
            f"parallelism=2 changed the answer of {result.algorithm}",
        )


# --------------------------------------------------------------------------- #
# the kernel backends: every registry algorithm on numpy and on python
# --------------------------------------------------------------------------- #
def probe_kernels(ctx: Ctx, dblp: Path, values: dict[str, tuple[float, str]]) -> None:
    from repro.graph.backend import get_backend
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession
    from repro.session.plan import PLAN_ALGORITHMS

    query = datagen.read_query(dblp)
    seconds: dict[str, dict[str, float]] = {}
    answers: dict[str, dict[str, Any]] = {}
    for backend in ("numpy", "python"):
        session = GraphSession(read_database(dblp), extract_engine="auto", backend=backend)
        handle = session.graph(query)
        handle.snapshot()
        seconds[backend], answers[backend] = {}, {}
        if backend == "numpy":
            # first touch of a fresh snapshot: the backend builds its views
            cold, _ = clock(handle.analyze().components().run)
            values["kernel.numpy.cold_components_s"] = (cold, "s")
        for name in PLAN_ALGORITHMS:
            params = {"source": 0} if name == "bfs" else {}
            wall, report = clock(handle.analyze().add(name, **params).run)
            seconds[backend][name] = wall
            answers[backend][name] = report[0].values
            values[f"kernel.{backend}.{name}_s"] = (wall, "s")
    for name in PLAN_ALGORITHMS:
        ctx.ops.record(
            check.values_equal(answers["numpy"][name], answers["python"][name]),
            f"numpy and python kernels disagree on {name}",
        )
    # regret of the backend seam: what `auto` resolves to here, over the
    # cheaper backend chosen per algorithm
    chosen = seconds[get_backend("auto").name]
    best = sum(min(seconds["numpy"][n], seconds["python"][n]) for n in PLAN_ALGORITHMS)
    values["kernel.auto_regret"] = (sum(chosen.values()) / best, "ratio")


# --------------------------------------------------------------------------- #
# vertexcentric + giraph (regression pins: they move no end-to-end metric)
# --------------------------------------------------------------------------- #
def probe_supersteps(handle: Any, values: dict[str, tuple[float, str]]) -> None:
    from repro.giraph import run_giraph
    from repro.vertexcentric import run_pagerank

    graph = handle.graph
    values["vertexcentric.pagerank_s"] = (clock(run_pagerank, graph, iterations=10)[0], "s")
    values["vertexcentric.pagerank_p2_s"] = (
        clock(run_pagerank, graph, iterations=10, parallelism=2)[0],
        "s",
    )
    seconds, result = clock(run_giraph, graph, "pagerank", iterations=10)
    values["giraph.pagerank_s"] = (seconds, "s")
    values["giraph.messages"] = (result.metrics.total_messages, "count")
    values["giraph.pagerank_p2_s"] = (
        clock(run_giraph, graph, "pagerank", iterations=10, parallelism=2)[0],
        "s",
    )


# --------------------------------------------------------------------------- #
# service.app / cache / codec / http — read from a serve_mix pass's spans
# --------------------------------------------------------------------------- #
def service_metrics(rec: Recorder, own: dict[str, Any], values: dict[str, tuple[float, str]]) -> None:
    records = own["records"]
    hit_inside = [
        sum(x)
        for x in zip(
            rec.durations("service.analyze", "hit"),
            rec.durations("encode_report", "hit"),
            rec.durations("dumps", "hit"),
        )
    ]
    values["service.analyze_hit_s"] = (med(rec.durations("service.analyze", "hit")), "s")
    values["service.analyze_miss_s"] = (med(rec.durations("service.analyze", "miss")), "s")
    values["service.add_edge_s"] = (med(rec.durations("service.add_edge")), "s")
    values["service.rejected_503"] = (own["rejected"], "count")
    values["codec.encode_report_s"] = (med(rec.durations("encode_report", "hit")), "s")
    values["codec.dumps_s"] = (med(rec.durations("dumps", "hit")), "s")
    values["codec.response_bytes"] = (
        med([r["bytes"] for r in records if r["class"] == "hit"]),
        "B",
    )
    stats = own["cache"]
    values["cache.get_us"] = (own["cache_get_us"], "us")
    values["cache.hit_ratio"] = (stats["hits"] / max(1, stats["hits"] + stats["misses"]), "ratio")
    values["cache.patched"] = (stats["patched"], "count")
    values["cache.evicted"] = (stats["invalidations"], "count")

    def wire(cls: str) -> list[float]:
        return [r["ms"] for r in records if r["class"] == cls] or [0.0]

    values["http.hit_overhead_ms"] = (median(wire("hit")) - med(hit_inside) * 1e3, "ms")
    values["http.fresh_conn_hit_p50_ms"] = (median(own["fresh_ms"]), "ms")
    for cls in ("hit", "miss", "write"):
        values[f"http.{cls}_p99_ms"] = (percentile(wire(cls), 99), "ms")
    values["loadgen.max_lateness_ms"] = (own["max_gap_ms"], "ms")


# --------------------------------------------------------------------------- #
# incremental — read from a mutate_refresh pass's spans
# --------------------------------------------------------------------------- #
def incremental_metrics(rec: Recorder, own: dict[str, Any], values: dict[str, tuple[float, str]]) -> None:
    for name in ("components", "pagerank", "bfs"):
        values[f"incremental.{name}_s"] = (med(rec.durations(f"maintain {name}", "small")), "s")
    tally = own["tally"]
    values["incremental.maintained"] = (tally["maintained"], "count")
    values["incremental.fallbacks"] = (tally["fallbacks"], "count")
    values["incremental.fallback_ratio"] = (
        tally["fallbacks"] / max(1, tally["maintained"] + tally["fallbacks"]),
        "ratio",
    )
    values["refresh.removal_p50_ms"] = (med(own["seconds"]["removal"]) * 1e3, "ms")
    values["refresh.bulk_p50_ms"] = (med(own["seconds"]["bulk"]) * 1e3, "ms")
