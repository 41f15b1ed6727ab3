"""The repository's one benchmark.

    python3 bench/run.py                      # all four workloads, one child each
    python3 bench/run.py --workload serve_mix --seed 11
    python3 bench/run.py --workload extract_dup --trace 1
    python3 bench/run.py --selftest

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``, tracing off) or every per-layer metric
(``--trace 1``, the stage-by-stage traced run).  Everything written lands
under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# import as the package ``bench`` (repo root on the path), not as loose
# modules: a top-level ``trace`` would shadow the standard library's
ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]

from bench import common  # noqa: E402
from bench.common import Ctx  # noqa: E402

WORKLOADS = ("extract_dup", "analyze_batch", "serve_mix", "mutate_refresh")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SELFTEST_SCALE = 0.05
SELFTEST_SECONDS = 2.0


def definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_module(name: str):
    import importlib

    return importlib.import_module(f"bench.workloads.{name}")


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Measure (or trace) one workload; returns the run record."""
    common.require_program()
    # scratch files the program makes (worker snapshots, say) stay in the checkout
    common.TMP.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(common.TMP)
    ctx = Ctx(name, seed, seconds, scale)
    module = workload_module(name)
    load_before = common.loadavg()
    started = time.perf_counter()
    if trace:
        from bench import layers

        metrics = layers.traced_run(ctx, module)
    else:
        metrics = module.measure(ctx)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "wall_s": time.perf_counter() - started,
        "load_before": load_before,
        "load_after": common.loadavg(),
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "problems": ctx.ops.problems,
        "metrics": metrics,
    }


def check_record(record: dict, spec: dict) -> list[str]:
    """Every metric the definition names is there, finite and in its unit."""
    problems = []
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    for entry in wanted:
        got = record["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} has unit {got['unit']}, not {entry['unit']}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"metric {entry['name']} is not finite: {got['value']!r}")
    extra = set(record["metrics"]) - {entry["name"] for entry in wanted}
    problems += [f"metric {name} is not in BENCHMARK.json" for name in sorted(extra)]
    problems += [f"bad metric name {name!r}" for name in record["metrics"] if not NAME_RE.match(name)]
    return problems


def print_record(record: dict) -> None:
    nproc = os.cpu_count() or 1
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed={record['seed']}  {kind}  wall={record['wall_s']:.1f}s")
    for name, entry in record["metrics"].items():
        samples = f"  n={entry['n']}" if "n" in entry else ""
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}{samples}")
    rate = record["failed"] / max(1, record["attempted"])
    print(f"  error_rate {rate:.6f}  ({record['failed']} failed of {record['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"  ! {problem}")
    for when in ("load_before", "load_after"):
        if record[when] > nproc:
            print(f"  warning: 1-min load average {record[when]:.2f} > nproc {nproc} ({when})")


def result_line(record: dict) -> str:
    """The driver's contract: one JSON object, last on standard output."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in record["metrics"].items()
            },
        }
    )


# --------------------------------------------------------------------------- #
# the results file: provenance once, then one record per run
# --------------------------------------------------------------------------- #
def provenance() -> dict:
    import sqlite3

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": common.git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite3": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "claim": None,
    }


def append_result(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        results = json.loads(path.read_text(encoding="utf-8"))
    else:
        results = {"provenance": provenance(), "runs": []}
    results["runs"].append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(results, indent=1), encoding="utf-8")
    tmp.replace(path)


def default_results_path() -> Path:
    return common.OUT / f"results_{common.git_sha()}.json"


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
def main_single(args: argparse.Namespace) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    problems = check_record(record, definition())
    record["problems"] += problems
    record["failed"] += len(problems)
    record["attempted"] += len(problems)
    append_result(Path(args.out) if args.out else default_results_path(), record)
    print_record(record)
    print(result_line(record))
    return 0


def spawn(extra: list[str]) -> tuple[int, dict | None]:
    """Run one workload in its own child process; echo what it prints."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *extra],
        stdout=subprocess.PIPE,
        text=True,
        cwd=os.getcwd(),
    )
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        return done.returncode, json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return done.returncode or 1, None


def main_all(args: argparse.Namespace) -> int:
    """Every workload, one at a time, each in its own child process."""
    status = 0
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            extra = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            extra += ["--trace", str(trace), "--scale", str(args.scale)]
            if args.out:
                extra += ["--out", args.out]
            code, result = spawn(extra)
            if code != 0 or result is None or not result["correct"]:
                status = 1
    print(f"results: {args.out or default_results_path()}")
    return status


def main_selftest(args: argparse.Namespace) -> int:
    """Every workload at about 1/20 size, two repeats, both modes; asserts
    that every metric ``BENCHMARK.json`` names comes out, finite, in its
    unit, under a legal name.  (Tier-1 does not collect ``bench/``.)"""
    started = time.perf_counter()
    args.scale, args.seconds = SELFTEST_SCALE, SELFTEST_SECONDS
    args.out = args.out or str(common.OUT / "selftest.json")
    Path(args.out).unlink(missing_ok=True)
    args.trace = None
    status = main_all(args)
    spec = definition()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [name for name in names if not NAME_RE.match(name)]
    if bad or sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print(f"selftest: BENCHMARK.json names do not match the benchmark: {bad}")
        status = 1
    elapsed = time.perf_counter() - started
    print(f"selftest: {'ok' if status == 0 else 'FAILED'} in {elapsed:.1f}s")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=common.NOMINAL_SECONDS,
        help="measuring budget of one run; scales repeat counts (default 20)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=None,
        help="0: end-to-end metrics, tracing off; 1: the traced per-layer run "
        "(default: 0 with --workload, both without)",
    )
    parser.add_argument("--out", help="results file (default bench/out/results_<sha>.json)")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true", help="small, quick run of everything")
    args = parser.parse_args(argv)
    common.require_program()
    if args.selftest:
        return main_selftest(args)
    if args.workload:
        return main_single(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
