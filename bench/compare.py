"""Compare two results files, or judge one file's steadiness.

    python3 bench/compare.py A.json B.json     # B against the base A
    python3 bench/compare.py A.json            # run-to-run spread of A alone

One row per (end-to-end metric, workload), judged with the bounds in
``BENCHMARK.json``: **worse** when B's median is worse than A's by more than
the bound, **better** when it is better by more than the bound,
**unresolved** when either side's spread (interquartile range over median) is
wider than the bound — then the data cannot tell — and **same** otherwise.
Spread is taken across a file's runs of that workload when it holds at least
two (run ``bench/run.py`` several times with the same ``--out``), else from
the sample quartiles recorded inside its single run.  Every ratio is printed
with its base.  Exit code 1 when any row is worse (or, with one file, when a
spread exceeds its bound).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, str], list[dict]]:
    """``{(workload, metric): [entry per untraced run]}`` of a results file."""
    results = json.loads(Path(path).read_text(encoding="utf-8"))
    table: dict[tuple[str, str], list[dict]] = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(entry)
    return table


def centre_and_spread(entries: list[dict]) -> tuple[float, float, int]:
    """Median of the runs' values, their relative spread, and the run count."""
    values = [entry["value"] for entry in entries]
    centre = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = entries[0].get("q1", centre), entries[0].get("q3", centre)
    return centre, (abs(q3 - q1) / abs(centre) if centre else 0.0), len(values)


def errors(path: str) -> dict[str, tuple[int, int]]:
    totals: dict[str, tuple[int, int]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        failed, attempted = totals.get(run["workload"], (0, 0))
        totals[run["workload"]] = (failed + run["failed"], attempted + run["attempted"])
    return totals


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    status = 0
    if new is None:
        print(f"{'metric':22s} {'workload':15s} {'median':>12s} {'unit':7s} {'runs':>4s} {'spread':>8s} {'bound':>6s}")
    else:
        print(
            f"{'metric':22s} {'workload':15s} {'base':>12s} {'new':>12s} {'unit':7s} "
            f"{'new/base':>9s} {'spread':>8s} {'bound':>6s}  verdict"
        )
    for entry in spec["end_to_end"]:
        name, bound, unit = entry["name"], entry["bound"], entry["unit"]
        for workload in workloads:
            if (workload, name) not in base or (new is not None and (workload, name) not in new):
                continue
            a, spread_a, runs_a = centre_and_spread(base[(workload, name)])
            if new is None:
                flag = "" if spread_a <= bound else "  WIDER THAN BOUND"
                if spread_a > bound and name != "setup_s":
                    status = 1
                print(
                    f"{name:22s} {workload:15s} {a:12.5g} {unit:7s} {runs_a:4d} "
                    f"{spread_a:8.2%} {bound:6.0%}{flag}"
                )
                continue
            b, spread_b, _ = centre_and_spread(new[(workload, name)])
            spread = max(spread_a, spread_b)
            worsening = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            if spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "WORSE"
                status = 1
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(
                f"{name:22s} {workload:15s} {a:12.5g} {b:12.5g} {unit:7s} "
                f"{b / a:8.3f}x {spread:8.2%} {bound:6.0%}  {verdict}"
            )
    for label, path in (("base", argv[0]), ("new", argv[1] if new is not None else None)):
        if path is None:
            continue
        for workload, (failed, attempted) in sorted(errors(path).items()):
            print(f"error_rate {label:5s} {workload:15s} {failed}/{attempted}")
            if new is not None and label == "new":
                before = errors(argv[0]).get(workload, (0, 1))
                if failed * max(1, before[1]) > before[0] * max(1, attempted):
                    print(f"  error rate rose on {workload}: WORSE")
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
