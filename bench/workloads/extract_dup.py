"""``extract_dup`` — extraction is the wall.

A duplicated co-occurrence table (every ``(id, p)`` row written five times,
three ids per join key) under ``Edges(ID1,ID2) :- R(ID1,P), R(ID2,P)``: CSV
load, the sqlite mirror and the extraction engine are most of a fresh
``repro analyze`` process, the two kernels a few percent.  So work on
``relational`` / ``core`` shows here, and kernel or service work must not.

Answer tiers (see README): *cold* = fresh CLI process, empty snapshot cache;
*warm* = fresh CLI process, populated cache; *hot* = re-running the plan on
a live session (bypasses extraction: the control); *change* = rows appended
to ``R``, then extract + analyze again in-process (mirror reload and
extraction without process start or CSV parsing).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from bench import check, datagen
from bench.common import Ctx, Samples, Speed, dir_bytes, fresh_dir, metric, run_cli, throughput, timed
from bench.trace import Recorder, run_plan

NAME = "extract_dup"
ALGOS = ("degree", "components")
DESIGNATED_PHASE = "cold"


def prepare(ctx: Ctx, repeats: int = datagen.SETUP_REPEATS) -> tuple[Path, dict[str, Any]]:
    return datagen.build(NAME, datagen.write_dup, ctx.seed, datagen.dup_args(ctx.scale), repeats)


def _cli_args(data: Path, cache: Path) -> list[str]:
    args = ["analyze", "--data", str(data), "--query-file", str(data / "query.dl")]
    args += ["--extract-engine", "auto", "--snapshot-cache", str(cache)]
    for algo in ALGOS:
        args += ["--algo", algo]
    return args


def _plan(handle: Any) -> Any:
    return handle.analyze().degree().components()


def _answers(report: Any) -> dict[str, Any]:
    return {result.algorithm: result.values for result in report}


def measure(ctx: Ctx) -> dict[str, dict[str, Any]]:
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    data, setup = prepare(ctx)
    query = datagen.read_query(data)
    batches = json.loads((data / "change.json").read_text(encoding="utf-8"))
    ops = ctx.ops
    speed = Speed()
    cold, warm, hot, change = Samples(), Samples(), Samples(), Samples()
    rss, outputs = [], []

    def cli(samples: Samples, cache: Path) -> None:
        before = speed.open()
        run = run_cli(_cli_args(data, cache), tag=NAME)
        samples.add(run.seconds, speed.close(before))
        ops.record(run.returncode == 0, f"CLI exit {run.returncode}: {run.stderr[-200:]}")
        rss.append(run.rss_mb)
        outputs.append(run.stdout)

    runs = ctx.repeats(5)
    for index in range(runs):
        cache = fresh_dir(NAME, f"cache{index}")
        cli(cold, cache)
    for _ in range(runs):
        cli(warm, cache)

    db = read_database(data)
    session = GraphSession(db, extract_engine="auto")
    handle = session.graph(query)
    reference = _answers(_plan(handle).run())
    csr_edges = handle.snapshot().num_edges
    for _ in range(ctx.repeats(10)):
        before = speed.open()  # one bracket around five quick re-runs
        group = []
        for _ in range(5):
            tick = time.perf_counter()
            answers = _answers(_plan(handle).run())
            group.append(time.perf_counter() - tick)
            ops.record(answers == reference, "hot re-run changed its answer")
        slowdown = speed.close(before)
        for seconds in group:
            hot.add(seconds, slowdown)

    def table_changed(batch: list) -> dict[str, Any]:
        db.insert("R", [tuple(row) for row in batch])
        changed = GraphSession(db, extract_engine="auto").graph(query)
        return _answers(_plan(changed).run())

    for batch in batches[: ctx.repeats(5)]:
        final = timed(speed, change, table_changed, batch)
        ops.record(len(final["degree"]) == len(reference["degree"]), "vertex set changed")
    completed = ops.attempted - ops.failed

    # ---- verification (not timed) ----------------------------------------- #
    sections = check.cli_sections(outputs[0])
    for text in outputs[1:]:
        other = check.cli_sections(text)
        same = sections.keys() == other.keys() and all(
            check.cli_sections_equal(sections[label], other[label]) for label in sections
        )
        ops.record(same, "CLI runs on the same input printed different answers")
    printed = check.cli_number("\n".join(sections.get("components", [])), "components:")
    ops.record(
        printed == len(set(reference["components"].values())),
        "CLI and in-process component counts differ",
    )
    verify_final_state(ctx, db, query, final)

    return {
        "setup_s": setup,
        "cold_answer_s": cold.metric("s"),
        "warm_answer_ms": warm.metric("ms"),
        "hot_answer_ms": hot.metric("ms", p50=True),
        "change_answer_ms": change.metric("ms"),
        "throughput_ops_s": throughput(completed, cold, warm, hot, change),
        "peak_rss_mb": metric(max(rss), "MB", rss),
        "store_bytes_per_edge": metric(dir_bytes(cache) / csr_edges, "B/edge"),
    }


def verify_final_state(ctx: Ctx, db: Any, query: str, final: dict[str, Any]) -> None:
    """The three engines agree on Table-1 counters for the final table, and
    the reference path (python engine, python kernels) gives the final
    answers the auto path gave."""
    from repro.core import GraphGen
    from repro.session import GraphSession

    reports = {
        engine: GraphGen(db, extract_engine=engine).extract_condensed(query)[1]
        for engine in ("python", "sqlite", "pushdown")
    }
    ctx.ops.record_all(check.engines_agree(reports))
    slow = GraphSession(db, extract_engine="python", backend="python")
    expected = _answers(_plan(slow.graph(query)).run())
    ctx.ops.record(
        expected["degree"] == final["degree"]
        and check.same_partition(expected["components"], final["components"]),
        "auto engine + auto backend answers differ from python engine + python backend",
    )


def traced(ctx: Ctx, rec: Recorder) -> None:
    """One cold analyze, stage by stage, then the other tiers once each."""
    from repro.core import GraphGen
    from repro.dsl import parse
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    data, _ = prepare(ctx, repeats=1)
    query = datagen.read_query(data)
    batches = json.loads((data / "change.json").read_text(encoding="utf-8"))
    cache = fresh_dir(NAME, "trace-cache")
    with rec.span("cold analyze", "bench", phase="cold"):
        with rec.span("read_database", "relational"):
            db = read_database(data)
        with rec.span("parse", "dsl"):
            spec = parse(query)
        with rec.span("sqlite mirror", "relational"):
            db.sqlite_backend()
        with rec.span("plan", "planner"):
            GraphGen(db, extract_engine="auto").plan(spec)
        session = GraphSession(db, extract_engine="auto", snapshot_cache=str(cache))
        with rec.span("extract", "extractor"):
            handle = session.graph(query)
        with rec.span("snapshot", "snapshot"):
            handle.graph.snapshot()
        with rec.span("persist", "store"):
            handle.persist()
        run_plan(rec, _plan(handle))
    with rec.span("hot re-run", "bench", phase="hot"):
        run_plan(rec, _plan(handle))
    with rec.span("table changed", "bench", phase="change"):
        with rec.span("insert", "relational"):
            db.insert("R", [tuple(row) for row in batches[0]])
        with rec.span("sqlite mirror", "relational"):
            db.sqlite_backend()
        session = GraphSession(db, extract_engine="auto")
        with rec.span("extract", "extractor"):
            handle = session.graph(query)
        with rec.span("snapshot", "snapshot"):
            handle.graph.snapshot()
        run_plan(rec, _plan(handle))
