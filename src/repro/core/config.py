"""Configuration options for the extraction pipeline."""

from __future__ import annotations

from dataclasses import dataclass

#: planner estimators for join output size
ESTIMATOR_DISTINCT = "distinct"
ESTIMATOR_EXACT = "exact"

#: extraction engines
ENGINE_PYTHON = "python"
ENGINE_SQLITE = "sqlite"
ENGINE_PUSHDOWN = "pushdown"
ENGINE_AUTO = "auto"
EXTRACT_ENGINES = (ENGINE_PYTHON, ENGINE_SQLITE, ENGINE_PUSHDOWN, ENGINE_AUTO)


@dataclass
class ExtractionOptions:
    """Tunable knobs of the GraphGen pipeline.

    Parameters
    ----------
    threshold_factor:
        The constant in the large-output-join test
        ``|Ri| * |Rj| / d > factor * (|Ri| + |Rj|)`` (paper uses 2).
    estimator:
        ``"distinct"`` — the paper's uniform-distribution estimate based on
        the catalog's distinct counts; ``"exact"`` — compute the true join
        output size from the per-value counts (more work, never misses a
        large-output join).
    preprocess:
        Apply Step 6 of Section 4.2: expand every virtual node ``V`` with
        ``in(V) * out(V) <= in(V) + out(V) + 1``.
    auto_expand_growth:
        After extraction, fully expand the graph if the expanded edge count
        is at most ``(1 + auto_expand_growth)`` times the condensed edge
        count (the paper suggests 20%, i.e. 0.2).  ``None`` disables the
        check.
    skip_unknown_endpoints:
        Edge tuples whose endpoints were not produced by any Nodes statement
        are skipped (and counted) rather than silently adding vertices.
    extract_engine:
        Which extraction engine runs the plan.  ``"python"`` (the default and
        the reference) evaluates each query with the built-in hash-join
        executor and builds the graph one ``add_edge`` at a time;
        ``"sqlite"`` is that same loop over rows the database's SQLite mirror
        evaluated.  ``"pushdown"`` (:mod:`repro.relational.pushdown`) asks the
        mirror for one ``SELECT DISTINCT`` per *distinct* query of the plan —
        the two halves of a symmetric co-occurrence rule are one scan — and
        wires each result into the condensed graph in one pass; it falls back
        to the ``python`` engine with a note when the plan or data cannot be
        pushed down.  ``"auto"`` is pushdown with the same fallback (the two
        differ only in intent: ``pushdown`` is an explicit request, ``auto``
        a hint).  All four produce logically equivalent graphs.
    """

    threshold_factor: float = 2.0
    estimator: str = ESTIMATOR_DISTINCT
    preprocess: bool = True
    auto_expand_growth: float | None = None
    skip_unknown_endpoints: bool = True
    extract_engine: str = ENGINE_PYTHON

    def __post_init__(self) -> None:
        if self.threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        if self.estimator not in (ESTIMATOR_DISTINCT, ESTIMATOR_EXACT):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.extract_engine not in EXTRACT_ENGINES:
            raise ValueError(
                f"unknown extract_engine {self.extract_engine!r}; "
                f"expected one of {EXTRACT_ENGINES}"
            )
