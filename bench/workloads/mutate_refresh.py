"""``mutate_refresh`` — the delta journal and the maintainers are the wall.

fig20's ring with short chords (n = 40 000) as an ``ExpandedGraph`` inside a
``JournaledGraph``, in a session with an on-disk snapshot cache.  After a warm
``components + pagerank(tolerance=1e-10, max_iterations=500) + bfs`` plan, a
seeded schedule of mutate → ``handle.refresh()`` → ``plan.run()`` cycles:
``small`` (8 local undirected adds: every maintainer repairs its result),
``removal`` (delete one earlier add: the components maintainer must refuse
and the kernel recomputes), ``bulk`` (m/20 random undirected adds: wide
frontiers, journal growth and compaction).  ``repro.incremental``,
``graph.delta`` and the base + delta merge do the work; cold kernels and
extraction almost none on ``small`` — and a maintainer made faster by
refusing more often shows as more fallbacks and slower ``removal``/``bulk``.

Answer tiers: *cold* = edge file to first plan results; *warm* = removal
cycle; *hot* = small cycle; *change* = bulk cycle.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from bench import check, datagen
from bench.common import Ctx, Samples, Speed, dir_bytes, fresh_dir, metric, throughput, timed, vm_hwm_mb
from bench.trace import Recorder, run_plan

NAME = "mutate_refresh"
DESIGNATED_PHASE = "small"
PAGERANK = {"tolerance": 1e-10, "max_iterations": 500}
BFS_SOURCE = 0


def prepare(
    ctx: Ctx, repeats: int = datagen.SETUP_REPEATS, vertices: int = 40_000
) -> tuple[Path, dict[str, Any]]:
    args = datagen.ring_args(ctx.scale, vertices)
    return datagen.build("ring", datagen.write_ring, ctx.seed, args, repeats)


def load_graph(data: Path) -> Any:
    """The edge file as a symmetric ``ExpandedGraph``."""
    from repro.graph import ExpandedGraph

    graph = ExpandedGraph()
    with open(data / "edges.csv", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            u, v = line.split(",")
            u, v = int(u), int(v)
            graph.add_edge(u, v)
            graph.add_edge(v, u)
    return graph


def open_session(data: Path, store: Path) -> tuple[Any, Any]:
    """Edge file → journaled graph → session with an on-disk store."""
    from repro.graph.delta import JournaledGraph
    from repro.relational.database import Database
    from repro.session import GraphSession

    graph = JournaledGraph(load_graph(data))
    session = GraphSession(Database(NAME), snapshot_cache=str(store))
    return graph, session.wrap(graph)


def plan_for(handle: Any) -> Any:
    return handle.analyze().components().pagerank(**PAGERANK).bfs(source=BFS_SOURCE)


def mutate(graph: Any, cycle: dict[str, Any]) -> None:
    for u, v in cycle.get("add", ()):
        graph.add_edge(u, v)
        graph.add_edge(v, u)
    for u, v in cycle.get("remove", ()):
        graph.delete_edge(u, v)
        graph.delete_edge(v, u)


def answers(report: Any) -> dict[str, Any]:
    return {result.algorithm: result.values for result in report}


def check_cycle(ctx: Ctx, cycle: dict[str, Any], refresh: Any, report: Any) -> None:
    """A cycle is one operation: its snapshot must come from base + delta
    (or the compaction that folds it), and a removal must not be 'repaired'
    by the components maintainer — deletions can split a component."""
    ok = refresh.snapshot_source in ("base+delta", "heap", "mmap")
    if cycle["kind"] == "removal":
        ok = ok and report["components"].engine != "incremental"
    ctx.ops.record(ok, f"{cycle['kind']} cycle took an unexpected path ({refresh.snapshot_source})")


def measure(ctx: Ctx) -> dict[str, dict[str, Any]]:
    data, setup = prepare(ctx)
    schedule = json.loads((data / "schedule.json").read_text(encoding="utf-8"))
    ops = ctx.ops
    speed = Speed()
    cold = Samples()
    cycles = {"small": Samples(), "removal": Samples(), "bulk": Samples()}

    def cold_open(index: int) -> tuple[Any, Any, Any, Path]:
        store = fresh_dir(NAME, f"store{index}")
        graph, handle = open_session(data, store)
        return graph, handle, plan_for(handle).run(), store

    for index in range(ctx.repeats(5)):
        graph, handle, report, store = timed(speed, cold, cold_open, index)
        ops.record(len(report) == 3, "warm plan did not answer all three requests")

    def one_cycle(cycle: dict[str, Any]) -> tuple[Any, Any]:
        mutate(graph, cycle)
        refresh = handle.refresh()
        return refresh, plan_for(handle).run()

    for cycle in schedule:
        refresh, report = timed(speed, cycles[cycle["kind"]], one_cycle, cycle)
        check_cycle(ctx, cycle, refresh, report)
    completed = ops.attempted - ops.failed
    rss = vm_hwm_mb()
    store_bytes = dir_bytes(store)
    csr_edges = handle.snapshot().num_edges

    verify_final_state(ctx, graph, answers(report))
    return {
        "setup_s": setup,
        "cold_answer_s": cold.metric("s"),
        "warm_answer_ms": cycles["removal"].metric("ms"),
        "hot_answer_ms": cycles["small"].metric("ms", p50=True),
        "change_answer_ms": cycles["bulk"].metric("ms"),
        "throughput_ops_s": throughput(completed, cold, *cycles.values()),
        "peak_rss_mb": metric(rss, "MB"),
        "store_bytes_per_edge": metric(store_bytes / csr_edges, "B/edge"),
    }


def verify_final_state(ctx: Ctx, graph: Any, hot: dict[str, Any]) -> None:
    """Final maintained answers equal a cold session on the final edge set."""
    from repro.relational.database import Database
    from repro.session import GraphSession

    cold_handle = GraphSession(Database(f"{NAME}-cold")).wrap(graph.inner)
    cold = answers(plan_for(cold_handle).run())
    ctx.ops.record_all(check.final_state_equal(hot, cold))


def traced(ctx: Ctx, rec: Recorder, vertices: int = 40_000, limits: dict[str, int] | None = None) -> dict[str, Any]:
    """One cold open, then cycles of each kind with spans around the store
    fetch (journal sync + base ⊕ delta merge, compaction), every maintainer
    call and the plan that serves the repaired results.  ``limits`` caps how
    many cycles of each kind run.  Returns per-kind cycle seconds and the
    maintained / fallback tallies."""
    import repro.incremental

    limits = limits or {"small": 12, "removal": 3, "bulk": 1}
    data, _ = prepare(ctx, repeats=1, vertices=vertices)
    schedule = json.loads((data / "schedule.json").read_text(encoding="utf-8"))
    store = fresh_dir(NAME, "trace-store")
    with rec.span("cold open", "bench", phase="cold"):
        with rec.span("load graph", "bench"):
            graph, handle = open_session(data, store)
        with rec.span("snapshot", "snapshot"):
            graph.snapshot()
        with rec.span("persist", "store"):
            handle.snapshot()
        run_plan(rec, plan_for(handle))
    seconds: dict[str, list[float]] = {"small": [], "removal": [], "bulk": []}
    tally = {"maintained": 0, "fallbacks": 0}
    maintainers = dict(repro.incremental.MAINTAINERS)
    for name, maintain in maintainers.items():
        repro.incremental.MAINTAINERS[name] = rec.wrap(maintain, f"maintain {name}", "incremental")
    try:
        with rec.patched(handle.session.store, "fetch", "store.fetch", "store"):
            for cycle in schedule:
                kind = cycle["kind"]
                if all(len(seconds[k]) >= limits.get(k, 0) for k in seconds):
                    break
                removable = all(graph.exists_edge(u, v) for u, v in cycle.get("remove", ()))
                if len(seconds[kind]) >= limits.get(kind, 0) or not removable:
                    continue  # skipped whole: a removal of a skipped add is skipped too
                tick = time.perf_counter()
                with rec.span(f"{kind} cycle", "bench", phase=kind):
                    with rec.span("mutate", "store"):
                        mutate(graph, cycle)
                    with rec.span("refresh", "store"):
                        refresh = handle.refresh()
                    report = run_plan(rec, plan_for(handle))
                seconds[kind].append(time.perf_counter() - tick)
                rec.count(f"cycles.{kind}")
                rec.count("delta_records", refresh.delta_edges)
                check_cycle(ctx, cycle, refresh, report)
                tally["maintained"] += sum(r.engine == "incremental" for r in report)
                tally["fallbacks"] += sum(r.engine != "incremental" for r in report)
    finally:
        repro.incremental.MAINTAINERS.update(maintainers)
    verify_final_state(ctx, graph, answers(report))
    tally["compactions"] = graph.journal.compactions
    return {"seconds": seconds, "tally": tally}
