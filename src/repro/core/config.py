"""Configuration options for the extraction pipeline, and the names its
callers choose from.

This module imports nothing else of the package, so the CLI builds its
argument parser from these tuples without loading the extraction stack.
"""

from __future__ import annotations

from dataclasses import dataclass

#: extraction engines
ENGINE_PYTHON = "python"
ENGINE_SQLITE = "sqlite"
ENGINE_PUSHDOWN = "pushdown"
ENGINE_AUTO = "auto"
EXTRACT_ENGINES = (ENGINE_PYTHON, ENGINE_SQLITE, ENGINE_PUSHDOWN, ENGINE_AUTO)

#: in-memory representations :meth:`repro.core.graphgen.GraphGen.extract`
#: builds (``"auto"``: EXP or C-DUP by the expansion ratio)
REPRESENTATIONS = ("cdup", "exp", "dedup1", "dedup2", "bitmap", "auto")

#: serialization formats of :meth:`repro.graphgenpy.GraphGenPy.execute_query`
FORMATS = ("edgelist", "adjacency", "condensed")


@dataclass
class ExtractionOptions:
    """Tunable knobs of the GraphGen pipeline.

    Which joins are condensed is not one of them: the planner cuts a join iff
    its exact output exceeds twice its inputs (the paper's Step 2 with its
    constant; :meth:`repro.relational.catalog.Catalog.is_large_output_join`).

    Parameters
    ----------
    preprocess:
        Apply Step 6 of Section 4.2: expand every virtual node ``V`` with
        ``in(V) * out(V) <= in(V) + out(V) + 1``.
    skip_unknown_endpoints:
        Edge tuples whose endpoints were not produced by any Nodes statement
        are skipped (and counted) rather than silently adding vertices.
    extract_engine:
        Where the plan's rows come from; every engine wires them into the
        condensed graph through the same loader.  ``"python"`` (the default
        and the reference) evaluates each query with the built-in hash-join
        executor; ``"sqlite"`` has the database's SQLite mirror evaluate each
        query.  ``"pushdown"`` (:mod:`repro.relational.pushdown`) asks the
        mirror for one ``SELECT DISTINCT`` per *distinct* query of the plan —
        the two halves of a symmetric co-occurrence rule are one scan, read
        once straight and once swapped; it falls back to the ``python``
        engine with a note when the plan or data cannot be pushed down.
        ``"auto"`` is pushdown with the same fallback (the two differ only in
        intent: ``pushdown`` is an explicit request, ``auto`` a hint).  All
        four produce logically equivalent graphs from the same plan (internal
        IDs follow each source's row order), with one exception: a ``NULL``
        join value inside one query.  The ``python`` evaluator joins ``None``
        to ``None``; SQL's ``=`` never matches ``NULL``.  Across a chain
        boundary the loader joins, and ``None`` is a key like any other on
        every engine.
    """

    preprocess: bool = True
    skip_unknown_endpoints: bool = True
    extract_engine: str = ENGINE_PYTHON

    def __post_init__(self) -> None:
        if self.extract_engine not in EXTRACT_ENGINES:
            raise ValueError(
                f"unknown extract_engine {self.extract_engine!r}; "
                f"expected one of {EXTRACT_ENGINES}"
            )
