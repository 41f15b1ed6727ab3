"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  Besides
the pytest-benchmark timings, each module appends the paper-style rows it
measured to ``benchmarks/results/<artefact>.txt`` (untracked) through the
:func:`record_rows` helper, so the regenerated tables can be inspected after a
``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import pytest

from repro.core import GraphGen
from repro.datasets import (
    COACTOR_QUERY,
    COAUTHOR_QUERY,
    COENROLLMENT_QUERY,
    COPURCHASE_QUERY,
    generate_dblp,
    generate_imdb,
    generate_tpch,
    generate_univ,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"


_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``bench`` marker, so the
    fast default is ``pytest tests/`` (or ``-m 'not bench'``) and benchmarks
    stay opt-in via ``make bench``."""
    for item in items:
        if str(item.path).startswith(str(_BENCH_DIR)):
            item.add_marker(pytest.mark.bench)


def record_rows(artefact: str, title: str, rows: Iterable[Mapping[str, object]]) -> None:
    """Append a formatted table of ``rows`` to the artefact's results file."""
    rows = list(rows)
    if not rows:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    lines = [title]
    lines.append("  " + "  ".join(str(column).ljust(widths[column]) for column in columns))
    for row in rows:
        lines.append("  " + "  ".join(str(row[column]).ljust(widths[column]) for column in columns))
    lines.append("")
    path = RESULTS_DIR / f"{artefact}.txt"
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    # also emit to stdout so it lands in bench_output.txt when run with -s/-rA
    print("\n".join(lines))


@pytest.fixture(scope="session", autouse=True)
def _clean_results_dir():
    """Start each benchmark session with a fresh results directory."""
    if RESULTS_DIR.exists():
        for path in RESULTS_DIR.glob("*.txt"):
            path.unlink()
    RESULTS_DIR.mkdir(exist_ok=True)
    yield


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The heavyweight extraction / dedup operations are far too slow for the
    default calibrated rounds; one timed round matches how the paper reports
    them (single wall-clock measurements).
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed_once(benchmark, fn, *args, **kwargs):
    """Like :func:`once`, additionally returning the measured seconds.

    The timing is taken with a plain wall-clock timer around the single call,
    independent of pytest-benchmark's internal bookkeeping, so the benchmark
    modules can build the paper-style tables from it.
    """
    from repro.utils import Timer

    timer = Timer()

    def wrapped():
        with timer:
            return fn(*args, **kwargs)

    result = benchmark.pedantic(wrapped, rounds=1, iterations=1)
    return result, timer.elapsed


# --------------------------------------------------------------------------- #
# the four "small" relational datasets of Table 1 / Section 6.1, scaled down
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def dblp_db():
    return generate_dblp(
        num_authors=500, num_publications=900, mean_authors_per_pub=4.0, seed=1
    )


@pytest.fixture(scope="session")
def imdb_db():
    return generate_imdb(num_people=400, num_movies=60, mean_cast_size=12.0, seed=2)


@pytest.fixture(scope="session")
def tpch_db():
    return generate_tpch(
        num_customers=300, num_parts=90, orders_per_customer=3.0,
        lineitems_per_order=4.0, part_skew=1.0, seed=3,
    )


@pytest.fixture(scope="session")
def univ_db():
    return generate_univ(num_students=400, num_instructors=30, num_courses=60, seed=4)


SMALL_DATASETS = {
    "DBLP": ("dblp_db", COAUTHOR_QUERY),
    "IMDB": ("imdb_db", COACTOR_QUERY),
    "TPCH": ("tpch_db", COPURCHASE_QUERY),
    "UNIV": ("univ_db", COENROLLMENT_QUERY),
}


@pytest.fixture(scope="session")
def small_datasets(dblp_db, imdb_db, tpch_db, univ_db):
    """name -> (database, extraction query) for the Table 1 datasets."""
    databases = {"DBLP": dblp_db, "IMDB": imdb_db, "TPCH": tpch_db, "UNIV": univ_db}
    return {name: (databases[name], query) for name, (_, query) in SMALL_DATASETS.items()}


@pytest.fixture(scope="session")
def small_condensed_graphs(small_datasets):
    """name -> extracted C-DUP CondensedGraph, shared across benchmark modules."""
    graphs = {}
    for name, (db, query) in small_datasets.items():
        gg = GraphGen(db, preprocess=False)
        graphs[name] = gg.extract_with_report(query, representation="cdup").condensed
    return graphs
