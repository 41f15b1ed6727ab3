"""``analyze_batch`` — the plan compiler and the kernels are the wall.

DBLP-shaped tables under the co-author query (C-DUP).  Four phases, one per
answer tier: *cold* (a) = fresh CLI process, empty snapshot cache, the eleven
plan algorithms other than ``link_predictions`` in one batch (the fused
closeness + diameter + betweenness sweep included); *warm* (b) = fresh CLI
process on the populated cache, ``pagerank`` + ``components`` (snapshot
persist / mmap load); *change* (c) = the same two algorithms with
``--representation dedup1`` (dominated by ``repro.dedup``); *hot* (d) = the
eleven-algorithm batch re-run on one live session (compile + kernels only).
Extraction is a minority everywhere, so an extraction change must not move
``hot_answer_ms`` here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from bench import check, datagen
from bench.common import Ctx, Samples, Speed, dir_bytes, fresh_dir, metric, run_cli, throughput, timed
from bench.trace import Recorder, run_plan

NAME = "analyze_batch"
DESIGNATED_PHASE = "hot"
#: every plan algorithm but link_predictions (measured per layer only)
BATCH = (
    "degree",
    "pagerank",
    "components",
    "kcore",
    "triangles",
    "clustering",
    "label_propagation",
    "closeness",
    "betweenness",
    "diameter",
    "bfs",
)
SHARED = ("pagerank", "components")
BFS_SOURCE = 0


def prepare(ctx: Ctx, repeats: int = datagen.SETUP_REPEATS) -> tuple[Path, dict[str, Any]]:
    return datagen.build("dblp", datagen.write_dblp, ctx.seed, datagen.dblp_args(ctx.scale), repeats)


def _cli_args(data: Path, algos: tuple[str, ...], *extra: str) -> list[str]:
    args = ["analyze", "--data", str(data), "--query-file", str(data / "query.dl")]
    args += ["--extract-engine", "auto", *extra]
    for algo in algos:
        args += ["--algo", algo]
    if "bfs" in algos:
        args += ["--source", str(BFS_SOURCE)]
    return args


def batch_plan(handle: Any) -> Any:
    plan = handle.analyze()
    for algo in BATCH:
        plan.add(algo, **({"source": BFS_SOURCE} if algo == "bfs" else {}))
    return plan


def _answers(report: Any) -> dict[str, Any]:
    return {result.algorithm: result.values for result in report}


def measure(ctx: Ctx) -> dict[str, dict[str, Any]]:
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    data, setup = prepare(ctx)
    query = datagen.read_query(data)
    ops = ctx.ops
    speed = Speed()
    phases = {"cold": Samples(), "warm": Samples(), "change": Samples(), "hot": Samples()}
    outputs: dict[str, list[str]] = {"cold": [], "warm": [], "change": []}
    rss = []

    def cli(phase: str, args: list[str]) -> None:
        before = speed.open()
        run = run_cli(args, tag=NAME)
        phases[phase].add(run.seconds, speed.close(before))
        ops.record(run.returncode == 0, f"{phase} CLI exit {run.returncode}: {run.stderr[-200:]}")
        outputs[phase].append(run.stdout)
        rss.append(run.rss_mb)

    runs = ctx.repeats(6)
    for index in range(runs):
        cache = fresh_dir(NAME, f"cache{index}")
        cli("cold", _cli_args(data, BATCH, "--snapshot-cache", str(cache)))
    for _ in range(ctx.repeats(7)):
        cli("warm", _cli_args(data, SHARED, "--snapshot-cache", str(cache)))
    for _ in range(runs):
        cli("change", _cli_args(data, SHARED, "--representation", "dedup1"))

    session = GraphSession(read_database(data), extract_engine="auto")
    handle = session.graph(query)
    reference = _answers(batch_plan(handle).run())  # first run discarded
    csr_edges = handle.snapshot().num_edges
    for _ in range(runs):
        answers = _answers(timed(speed, phases["hot"], lambda: batch_plan(handle).run()))
        ops.record(answers == reference, "hot batch re-run changed its answers")
    completed = ops.attempted - ops.failed

    # ---- verification (not timed) ----------------------------------------- #
    cold_sections = check.cli_sections(outputs["cold"][0])
    for phase, texts in outputs.items():
        for text in texts:
            other = check.cli_sections(text)
            labels = SHARED if phase != "cold" else tuple(cold_sections)
            same = all(
                label in other and check.cli_sections_equal(cold_sections[label], other[label])
                for label in labels
            )
            ops.record(same, f"{phase} CLI output differs from the cold run's")
    for label, prefix, expected in (
        ("triangles", "triangles:", reference["triangles"]),
        ("components", "components:", len(set(reference["components"].values()))),
        ("diameter", "approximate diameter:", reference["diameter"]),
    ):
        printed = check.cli_number("\n".join(cold_sections.get(label, [])), prefix)
        ops.record(printed == expected, f"CLI printed {label} {printed}, session computed {expected}")
    verify_backends(ctx, handle, reference)

    return {
        "setup_s": setup,
        "cold_answer_s": phases["cold"].metric("s"),
        "warm_answer_ms": phases["warm"].metric("ms"),
        "hot_answer_ms": phases["hot"].metric("ms"),
        "change_answer_ms": phases["change"].metric("ms"),
        "throughput_ops_s": throughput(completed, *phases.values()),
        "peak_rss_mb": metric(max(rss), "MB", rss),
        "store_bytes_per_edge": metric(dir_bytes(cache) / csr_edges, "B/edge"),
    }


#: the algorithms cheap enough on the python backend to re-check in every
#: measured run; the traced run compares all twelve on its probe graph
CHEAP = ("degree", "pagerank", "components", "kcore", "triangles", "clustering", "label_propagation", "bfs")


def verify_backends(ctx: Ctx, handle: Any, reference: dict[str, Any]) -> None:
    """numpy and python kernels agree: ints exact, floats within 1e-9."""
    from repro.session import GraphSession

    slow = GraphSession(handle.session.database, backend="python").wrap(handle.graph)
    plan = slow.analyze()
    for algo in CHEAP:
        plan.add(algo, **({"source": BFS_SOURCE} if algo == "bfs" else {}))
    for result in plan.run():
        ctx.ops.record(
            check.values_equal(result.values, reference[result.algorithm]),
            f"python and auto backends disagree on {result.algorithm}",
        )


def traced(ctx: Ctx, rec: Recorder) -> None:
    """Each phase once, in-process, stage by stage."""
    from repro.core import GraphGen
    from repro.dedup import deduplicate_dedup1
    from repro.dsl import parse
    from repro.relational.csv_io import read_database
    from repro.session import GraphSession

    data, _ = prepare(ctx, repeats=1)
    query = datagen.read_query(data)
    cache = fresh_dir(NAME, "trace-cache")

    def load_and_extract(phase: str, **session_options: Any) -> Any:
        with rec.span("read_database", "relational"):
            db = read_database(data)
        with rec.span("parse", "dsl"):
            spec = parse(query)
        with rec.span("sqlite mirror", "relational"):
            db.sqlite_backend()
        with rec.span("plan", "planner"):
            GraphGen(db, extract_engine="auto").plan(spec)
        session = GraphSession(db, extract_engine="auto", **session_options)
        with rec.span("extract", "extractor"):
            return session.graph(query)

    with rec.span("cold batch", "bench", phase="cold"):
        handle = load_and_extract("cold", snapshot_cache=str(cache))
        with rec.span("snapshot", "snapshot"):
            handle.graph.snapshot()
        with rec.span("persist", "store"):
            handle.persist()
        run_plan(rec, batch_plan(handle))
    with rec.span("reopen", "bench", phase="warm"):
        handle = load_and_extract("warm", snapshot_cache=str(cache))
        with rec.span("snapshot", "snapshot"):
            handle.graph.snapshot()
        with rec.span("fetch (mmap)", "store"):
            handle.snapshot()
        run_plan(rec, handle.analyze().pagerank().components())
    with rec.span("dedup1", "bench", phase="change"):
        handle = load_and_extract("change")
        with rec.span("deduplicate_dedup1", "dedup"):
            graph = deduplicate_dedup1(handle.extraction.condensed)
        wrapped = handle.session.wrap(graph)
        with rec.span("snapshot", "snapshot"):
            graph.snapshot()
        run_plan(rec, wrapped.analyze().pagerank().components())
    hot_handle = load_and_extract("setup")
    batch_plan(hot_handle).run()
    for _ in range(2):
        with rec.span("hot batch", "bench", phase="hot"):
            run_plan(rec, batch_plan(hot_handle))
