"""Command-line interface for GraphGen.

The paper's system is used through a web front-end and a Python wrapper; this
CLI gives the reproduction an equivalent batch entry point so that graphs can
be extracted, inspected and analyzed without writing a script::

    python -m repro.cli datasets
    python -m repro.cli extract --dataset dblp --output coauthors.tsv
    python -m repro.cli explain --data ./my_csv_db --query-file coauthors.dl
    python -m repro.cli analyze --dataset tpch --algorithm pagerank --top 5
    python -m repro.cli analyze --dataset dblp --algo pagerank --algo components \
        --snapshot-cache ./snapshots --parallel 4

The ``analyze`` command is a thin client of
:class:`repro.session.GraphSession`: it builds one session, requests one
:class:`~repro.session.GraphHandle`, chains every ``--algo`` onto one
:class:`~repro.session.AnalysisPlan` and prints the resulting report — so
``--algo pagerank --algo components`` shares a single extraction and a
single CSR snapshot build instead of two process invocations.

Databases come either from a directory of CSV files (see
:mod:`repro.relational.csv_io`) or from one of the built-in synthetic dataset
generators; queries come from a file, a literal string, or the dataset's
default extraction query.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.config import EXTRACT_ENGINES, FORMATS, REPRESENTATIONS
from repro.dsl.parser import parse as parse_query
from repro.exceptions import GraphGenError, UsageError
from repro.graph.backend import BACKEND_ENV_VAR, get_backend
from repro.session.plan import PLAN_ALGORITHMS
from repro.session.report import AnalysisResult
from repro.session.session import GraphSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.database import Database

# Imports follow use: a warm `analyze` reopens a snapshot and runs its plan,
# so the extraction stack (GraphGen, the CSV reader, the dataset generators)
# is imported inside the commands and helpers that run it.


def _dblp(scale: float, seed: int) -> Database:
    from repro.datasets.dblp import generate_dblp

    return generate_dblp(
        num_authors=int(300 * scale),
        num_publications=int(500 * scale),
        mean_authors_per_pub=4.0,
        seed=seed,
    )


def _imdb(scale: float, seed: int) -> Database:
    from repro.datasets.imdb import generate_imdb

    return generate_imdb(
        num_people=int(250 * scale), num_movies=int(40 * scale), mean_cast_size=10.0, seed=seed
    )


def _tpch(scale: float, seed: int) -> Database:
    from repro.datasets.tpch import generate_tpch

    return generate_tpch(
        num_customers=int(200 * scale),
        num_parts=int(60 * scale),
        orders_per_customer=3.0,
        lineitems_per_order=4.0,
        part_skew=1.0,
        seed=seed,
    )


def _univ(scale: float, seed: int) -> Database:
    from repro.datasets.univ import generate_univ

    return generate_univ(
        num_students=int(250 * scale),
        num_instructors=int(20 * scale),
        num_courses=int(40 * scale),
        seed=seed,
    )


#: name -> (generator(scale, seed) -> Database, name of its default
#: extraction query in :mod:`repro.datasets`)
BUILTIN_DATASETS: dict[str, tuple[Callable[[float, int], Database], str]] = {
    "dblp": (_dblp, "COAUTHOR_QUERY"),
    "imdb": (_imdb, "COACTOR_QUERY"),
    "tpch": (_tpch, "COPURCHASE_QUERY"),
    "univ": (_univ, "COENROLLMENT_QUERY"),
}


def _default_query(dataset: str) -> str:
    """The built-in ``dataset``'s default extraction query."""
    import repro.datasets

    return getattr(repro.datasets, BUILTIN_DATASETS[dataset][1])


#: choices of the legacy single --algorithm flag (kept stable); the
#: repeatable --algo flag accepts every repro.session plan algorithm
ALGORITHMS = ("degree", "pagerank", "components", "bfs", "kcore", "triangles")


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgen",
        description="Extract and analyze hidden graphs from relational data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the built-in synthetic datasets")

    for name, help_text in (
        ("extract", "extract a graph and serialize it to a file"),
        ("explain", "show the extraction plan and generated SQL"),
        ("analyze", "extract a graph and run graph algorithms on it"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_source_arguments(sub)
        _add_query_arguments(sub)
        sub.add_argument(
            "--representation",
            choices=REPRESENTATIONS,
            default="cdup",
            help="in-memory representation to build (default: cdup)",
        )
        if name == "extract":
            sub.add_argument("--output", required=True, help="output file path")
            sub.add_argument(
                "--format", choices=FORMATS, default="edgelist", help="serialization format"
            )
        if name == "analyze":
            sub.add_argument(
                "--algorithm",
                choices=ALGORITHMS,
                default=None,
                help="single algorithm to run (default: degree); see --algo "
                "for batches and the full catalogue",
            )
            sub.add_argument(
                "--algo",
                action="append",
                dest="algos",
                metavar="NAME",
                default=None,
                help="algorithm to run (repeatable): all requests share one "
                "extraction and one snapshot build; choices: "
                + ", ".join(sorted(PLAN_ALGORITHMS)),
            )
            sub.add_argument("--top", type=int, default=10, help="number of result rows to print")
            sub.add_argument("--source", help="source vertex for BFS (as text)")
            sub.add_argument(
                "--snapshot-cache",
                metavar="DIR",
                help="directory of persisted CSR snapshots, keyed by "
                "dataset/query/representation; the extracted graph's snapshot "
                "is written there (only when missing or stale, detected by "
                "content hash) and --parallel workers mmap the cached file; "
                "with --data, a later run over byte-identical CSV files, query "
                "and options reopens that file instead of parsing and "
                "extracting",
            )
            sub.add_argument(
                "--parallel",
                type=int,
                default=1,
                metavar="N",
                help="run the two sliceable steps of the --algo batch over "
                "one pool of N worker processes mapping the shared snapshot: "
                "the per-source sweep behind closeness/diameter/sampled "
                "betweenness (split by source) and the triangle pass behind "
                "triangles/clustering (split by vertex range); everything "
                "else, and a sweep that carries full-source betweenness, "
                "runs inline (every result identical to N=1)",
            )
            sub.add_argument(
                "--backend",
                default=None,
                metavar="{python,numpy,auto}",
                help="kernel backend executing the algorithms (and any "
                "--parallel workers): 'python' is the bit-exact reference, "
                "'numpy' runs vectorised kernels over zero-copy snapshot "
                "views (int results exact, float results within 1e-9), "
                "'auto' picks numpy when importable (default: the "
                "REPRO_KERNEL_BACKEND environment variable, else auto)",
            )
            sub.add_argument(
                "--plan-report",
                action="store_true",
                help="after the results, print the plan compiler's execution "
                "report: per-request engine and timing plus per-node "
                "provenance (which snapshot/derived-view/sweep/algorithm "
                "nodes each request computed vs reused)",
            )

    serve = subparsers.add_parser(
        "serve",
        help="serve the extracted graph over HTTP with a session result cache",
    )
    _add_source_arguments(serve)
    _add_query_arguments(serve)
    serve.add_argument(
        "--representation",
        choices=REPRESENTATIONS,
        default="cdup",
        help="in-memory representation to build (default: cdup)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks a free one and prints it (default: 0)",
    )
    serve.add_argument(
        "--snapshot-cache",
        metavar="DIR",
        help="directory of persisted CSR snapshots; defaults to a temporary "
        "directory when --parallel > 1 (workers mmap the snapshot file); "
        "with --data, a boot over unchanged CSV files reopens the persisted "
        "snapshot instead of extracting (not with --incremental)",
    )
    serve.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per plan; the service keeps one warm pool "
        "shared across requests (default: 1)",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="{python,numpy,auto}",
        help="kernel backend executing served analyses (default: the "
        "REPRO_KERNEL_BACKEND environment variable, else auto)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="result-cache capacity in entries, LRU-evicted (default: 128)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="uncached analyses executing concurrently (default: 4)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="uncached analyses allowed to wait for a slot before the "
        "service answers 503 (default: 16)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="shut down after serving N requests (smoke tests; default: run forever)",
    )
    serve.add_argument(
        "--incremental",
        action="store_true",
        help="journal mutations instead of rebuilding: POST /edges appends "
        "to a delta journal, snapshots merge the delta over the mmap'd "
        "base, and cached results of maintainable algorithms (pagerank, "
        "components, bfs) are kept instead of evicted, and repaired when "
        "they are next read",
    )

    return parser


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="directory of CSV files to load as the database")
    group.add_argument(
        "--dataset", choices=sorted(BUILTIN_DATASETS), help="built-in synthetic dataset"
    )
    parser.add_argument("--scale", type=float, default=1.0, help="size multiplier for --dataset")
    parser.add_argument("--seed", type=int, default=0, help="random seed for --dataset")


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--query", help="extraction query as a literal DSL string")
    group.add_argument("--query-file", help="file containing the extraction query")
    parser.add_argument(
        "--extract-engine",
        choices=EXTRACT_ENGINES,
        default=None,
        help="where extraction rows come from (one loader wires them for "
        "every engine): 'python' evaluates each query in-process (reference), "
        "'sqlite' on the sqlite mirror, 'pushdown' runs one SELECT DISTINCT "
        "per distinct query of the plan, 'auto' tries pushdown and falls back "
        "(default: python)",
    )


# --------------------------------------------------------------------------- #
# shared resolution helpers
# --------------------------------------------------------------------------- #
def _resolve_database(args: argparse.Namespace) -> Database:
    if args.data:
        from repro.relational.csv_io import read_database

        return read_database(args.data)
    generator, _ = BUILTIN_DATASETS[args.dataset]
    return generator(args.scale, args.seed)


def _session_source(args: argparse.Namespace) -> "Database | str":
    """What a GraphSession is opened on: a --data directory goes in as a
    path (the session parses it only if the snapshot cache cannot answer),
    a --dataset generator as the database it builds."""
    return args.data or _resolve_database(args)


def _engine_overrides(args: argparse.Namespace) -> dict[str, str]:
    """ExtractionOptions overrides implied by --extract-engine (if given)."""
    if getattr(args, "extract_engine", None) is None:
        return {}
    return {"extract_engine": args.extract_engine}


def _resolve_query(args: argparse.Namespace) -> str:
    if args.query:
        return args.query
    if args.query_file:
        return Path(args.query_file).read_text(encoding="utf-8")
    if args.dataset:
        return _default_query(args.dataset)
    raise GraphGenError(
        "no query given: pass --query / --query-file, or use --dataset for its default query"
    )


def _print_rows(rows: Sequence[tuple[Any, Any]], header: tuple[str, str], out) -> None:
    width = max(len(header[0]), *(len(str(key)) for key, _ in rows)) if rows else len(header[0])
    print(f"{header[0].ljust(width)}  {header[1]}", file=out)
    for key, value in rows:
        print(f"{str(key).ljust(width)}  {value}", file=out)


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_datasets(_: argparse.Namespace, out) -> int:
    for name in sorted(BUILTIN_DATASETS):
        query = _default_query(name)
        first_edges_line = next(
            line.strip() for line in query.strip().splitlines() if line.strip().startswith("Edges")
        )
        print(f"{name}: {first_edges_line}", file=out)
    return 0


def _cmd_extract(args: argparse.Namespace, out) -> int:
    from repro.graphgenpy import GraphGenPy

    db = _resolve_database(args)
    query = _resolve_query(args)
    result = GraphGenPy(db, **_engine_overrides(args)).execute_query(
        query, args.output, fmt=args.format, representation=args.representation
    )
    for key, value in result.as_dict().items():
        print(f"{key}: {value}", file=out)
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    from repro.core.graphgen import GraphGen

    db = _resolve_database(args)
    query = _resolve_query(args)
    print(GraphGen(db, **_engine_overrides(args)).explain(query), file=out)
    return 0


# --------------------------------------------------------------------------- #
# analyze: a thin client of repro.session.GraphSession
# --------------------------------------------------------------------------- #
def _parallelism(args) -> int:
    parallel = getattr(args, "parallel", 1)
    if parallel < 1:
        raise UsageError(f"--parallel must be at least 1 (got {parallel})")
    return parallel


def _resolve_algos(args: argparse.Namespace) -> list[str]:
    """The algorithm batch this invocation requests (validated names)."""
    if args.algos:
        if args.algorithm is not None:
            raise UsageError("pass either --algorithm or repeated --algo flags, not both")
        for name in args.algos:
            if name not in PLAN_ALGORITHMS:
                raise UsageError(
                    f"--algo: unknown algorithm {name!r}; expected one of "
                    + ", ".join(sorted(PLAN_ALGORITHMS))
                )
        return list(args.algos)
    return [args.algorithm or "degree"]


def _print_degree(result: AnalysisResult, args, out) -> None:
    rows = sorted(result.values.items(), key=lambda item: (-item[1], repr(item[0])))[: args.top]
    _print_rows(rows, ("vertex", "degree"), out)


def _print_pagerank(result: AnalysisResult, args, out) -> None:
    rows = [
        (vertex, f"{score:.6f}")
        for vertex, score in sorted(
            result.values.items(), key=lambda item: (-item[1], repr(item[0]))
        )[: args.top]
    ]
    _print_rows(rows, ("vertex", "pagerank"), out)


def _sizes_rows(labels: dict) -> dict:
    sizes: dict[Any, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes


def _print_components(result: AnalysisResult, args, out) -> None:
    sizes = _sizes_rows(result.values)
    rows = sorted(sizes.items(), key=lambda item: (-item[1], repr(item[0])))[: args.top]
    print(f"components: {len(sizes)}", file=out)
    _print_rows(rows, ("component", "size"), out)


def _print_bfs(result: AnalysisResult, args, out) -> None:
    distances = result.values
    rows = sorted(distances.items(), key=lambda item: (item[1], repr(item[0])))[: args.top]
    print(f"reachable vertices: {len(distances)}", file=out)
    _print_rows(rows, ("vertex", "distance"), out)


def _print_kcore(result: AnalysisResult, args, out) -> None:
    cores = result.values
    rows = sorted(cores.items(), key=lambda item: (-item[1], repr(item[0])))[: args.top]
    print(f"degeneracy: {max(cores.values(), default=0)}", file=out)
    _print_rows(rows, ("vertex", "core"), out)


def _print_triangles(result: AnalysisResult, args, out) -> None:
    print(f"triangles: {result.values}", file=out)


def _print_clustering(result: AnalysisResult, args, out) -> None:
    print(f"average clustering: {result.values:.6f}", file=out)


def _print_label_propagation(result: AnalysisResult, args, out) -> None:
    sizes = _sizes_rows(result.values)
    rows = sorted(sizes.items(), key=lambda item: (-item[1], repr(item[0])))[: args.top]
    print(f"communities: {len(sizes)}", file=out)
    _print_rows(rows, ("community", "size"), out)


def _print_centrality(result: AnalysisResult, args, out) -> None:
    rows = [
        (vertex, f"{score:.6f}")
        for vertex, score in sorted(
            result.values.items(), key=lambda item: (-item[1], repr(item[0]))
        )[: args.top]
    ]
    _print_rows(rows, ("vertex", result.algorithm), out)


def _print_diameter(result: AnalysisResult, args, out) -> None:
    print(f"approximate diameter: {result.values}", file=out)


def _print_link_predictions(result: AnalysisResult, args, out) -> None:
    rows = [(f"{u} -- {v}", f"{score:.6f}") for u, v, score in result.values[: args.top]]
    _print_rows(rows, ("pair", result.params["score"]), out)


#: algorithm name -> printer(result, args, out)
RESULT_PRINTERS: dict[str, Callable[[AnalysisResult, argparse.Namespace, Any], None]] = {
    "degree": _print_degree,
    "pagerank": _print_pagerank,
    "components": _print_components,
    "bfs": _print_bfs,
    "kcore": _print_kcore,
    "triangles": _print_triangles,
    "clustering": _print_clustering,
    "label_propagation": _print_label_propagation,
    "closeness": _print_centrality,
    "betweenness": _print_centrality,
    "diameter": _print_diameter,
    "link_predictions": _print_link_predictions,
}


def _snapshot_cache_key(args: argparse.Namespace, query: str) -> str:
    """Cache key identifying (database origin + dataset args, parsed query,
    representation) — everything that changes the snapshot's content or
    vertex order.  A ``--data`` directory is identified by its full resolved
    path (hashed), so two directories that happen to share a basename never
    collide."""
    import hashlib

    if args.dataset:
        origin = f"{args.dataset}_s{args.scale}_r{args.seed}"
    else:
        path = Path(args.data).resolve()
        origin = f"{path.name}_{hashlib.sha256(str(path).encode('utf-8')).hexdigest()[:8]}"
    digest = hashlib.sha256(repr(parse_query(query)).encode("utf-8")).hexdigest()[:12]
    return f"{origin}_{args.representation}_{digest}"


def _parse_vertex(graph, text: str):
    """Interpret a --source string as an existing vertex ID (int if possible);
    ``graph`` is the snapshot, whose ID codec answers without extracting."""
    if graph.has_vertex(text):
        return text
    try:
        candidate = int(text)
    except ValueError:
        candidate = None
    if candidate is not None and graph.has_vertex(candidate):
        return candidate
    raise GraphGenError(f"vertex {text!r} is not in the extracted graph")


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    # validate cheap flags early, before the (expensive) extraction; an
    # unknown --algo / --backend or --parallel < 1 is a UsageError message,
    # never a traceback
    algos = _resolve_algos(args)
    _parallelism(args)
    try:
        # repro.graph.backend owns name + availability validation
        get_backend(args.backend)
    except UsageError as exc:
        # blame the actual source: the flag if given, else the environment
        source = "--backend" if args.backend is not None else BACKEND_ENV_VAR
        raise UsageError(f"{source}: {exc}") from None
    source = _session_source(args)
    query = _resolve_query(args)

    session = GraphSession(
        source,
        snapshot_cache=args.snapshot_cache,
        backend=args.backend,
        parallelism=args.parallel,
        **_engine_overrides(args),
    )
    handle = session.graph(
        query, representation=args.representation, key=_snapshot_cache_key(args, query)
    )
    if args.snapshot_cache:
        # persist eagerly (content-hash checked: a fresh file is written only
        # when missing or stale) so warm runs and parallel workers mmap it
        handle.persist()

    plan = handle.analyze()
    for name in algos:
        params: dict[str, Any] = {}
        if name == "bfs":
            if args.source is None:
                raise GraphGenError("--source is required for the bfs algorithm")
            params["source"] = _parse_vertex(handle.snapshot(), args.source)
        plan.add(name, **params)
    report = plan.run()

    multiple = len(report) > 1
    for result in report:
        if multiple:
            print(f"--- {result.label} ---", file=out)
        for note in result.notes:
            print(note, file=out)
        RESULT_PRINTERS[result.algorithm](result, args, out)
    if args.plan_report:
        print("--- plan report ---", file=out)
        print(report.summary(), file=out)
    return 0


# --------------------------------------------------------------------------- #
# serve: the repro.service HTTP front-end
# --------------------------------------------------------------------------- #
def _cmd_serve(args: argparse.Namespace, out) -> int:
    import tempfile

    # a request imports nothing: the service's modules load here, and with
    # them the extraction stack, which the first write to a graph reopened
    # from the snapshot cache runs
    import repro.core.graphgen  # noqa: F401
    import repro.relational.sqlite_backend  # noqa: F401
    from repro.service import GraphService, make_server

    _parallelism(args)
    try:
        get_backend(args.backend)
    except UsageError as exc:
        source = "--backend" if args.backend is not None else BACKEND_ENV_VAR
        raise UsageError(f"{source}: {exc}") from None
    source = _session_source(args)
    query = _resolve_query(args)

    # parallel plans need a snapshot *file* for workers to mmap; without a
    # user-provided store, give the service a private temporary one so every
    # request shares one file instead of re-writing a tempfile per plan
    snapshot_cache = args.snapshot_cache
    temp_store = None
    if snapshot_cache is None and args.parallel > 1:
        temp_store = tempfile.TemporaryDirectory(prefix="ggserve-")
        snapshot_cache = temp_store.name

    session = GraphSession(
        source,
        snapshot_cache=snapshot_cache,
        backend=args.backend,
        parallelism=args.parallel,
        warm_pool=True,
        **_engine_overrides(args),
    )
    try:
        handle = session.graph(
            query, representation=args.representation, key=_snapshot_cache_key(args, query)
        )
        service = GraphService(
            session,
            handle,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            incremental=args.incremental,
        )
        server = make_server(service, args.host, args.port, max_requests=args.max_requests)
        host, port = server.server_address[:2]
        # machine-readable boot line: smoke tests (and humans) parse the port
        print(f"serving on http://{host}:{port}", file=out, flush=True)
        # SIGTERM leaves serve_forever() the way Ctrl-C does, so the finally
        # blocks below stop the warm pool's workers and remove the store
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - SIGINT / SIGTERM shutdown
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.server_close()
    finally:
        session.close()
        if temp_store is not None:
            temp_store.cleanup()
    return 0


COMMANDS = {
    "datasets": _cmd_datasets,
    "extract": _cmd_extract,
    "explain": _cmd_explain,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except GraphGenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
