"""PageRank over the CSR execution kernel.

PageRank is the paper's canonical "whole graph, many passes" workload
(Figure 11, Table 3, Table 4).  It is *not* duplicate-insensitive: running it
directly on a duplicated condensed graph would over-weight edges with multiple
paths, which is exactly why deduplication matters.

Two-phase execution: the input graph is encoded into a
:class:`~repro.graph.kernel.CSRGraph` snapshot once, power iteration runs on
flat per-index float arrays in the selected kernel backend
(:func:`repro.graph.backend.get_backend`), and the result is decoded back to
external vertex IDs.  The ``python`` backend mirrors the summation order of
the pre-kernel Graph-API implementation bit-for-bit; the ``numpy`` backend
re-associates sums and matches it within 1e-9 L-infinity.

:func:`pagerank_runner` is the registry's ``(csr, backend, params)`` runner
and :func:`check_pagerank` its parameter check: together they are
:func:`pagerank` and a session :class:`~repro.session.AnalysisPlan`'s
``pagerank`` request.  The runner is :func:`pagerank_vector`, the
per-index form the incremental maintainer carries, decoded by
``csr.decode`` — the registry's step from vector to value, which plans and
incremental serves take too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms.centrality import is_nonnegative_int
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph


def check_pagerank(params: dict) -> None:
    damping = params["damping"]
    if not isinstance(damping, (int, float)) or not 0.0 < damping < 1.0:
        raise UsageError(f"pagerank: damping must be in (0, 1) (got {damping!r})")
    if not is_nonnegative_int(params["max_iterations"]):
        raise UsageError(
            f"pagerank: max_iterations must be a non-negative integer "
            f"(got {params['max_iterations']!r})"
        )
    tolerance = params["tolerance"]
    # bool is an int subclass; NaN fails the comparison
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) or not tolerance >= 0:
        raise UsageError(
            f"pagerank: tolerance must be a non-negative number (got {tolerance!r})"
        )


def pagerank_vector(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> list[float]:
    """Rank per dense index."""
    if csr.n == 0:
        return []
    return backend.pagerank(csr, params["damping"], params["max_iterations"], params["tolerance"])


def pagerank_runner(csr: "CSRGraph", backend: "KernelBackend", params: dict) -> dict:
    return csr.decode(pagerank_vector(csr, backend, params))


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    max_iterations: int = 50,
    tolerance: float = 1.0e-9,
) -> dict[VertexId, float]:
    """Power-iteration PageRank.

    Dangling vertices (out-degree zero) redistribute their rank uniformly, the
    standard correction.  Iteration stops when the L1 change drops below
    ``tolerance`` or after ``max_iterations``.
    """
    params = {"damping": damping, "max_iterations": max_iterations, "tolerance": tolerance}
    check_pagerank(params)
    return pagerank_runner(graph.snapshot(), get_backend(), params)


def top_k_pagerank(graph: Graph, k: int = 10, **kwargs: float) -> list[tuple[VertexId, float]]:
    """The ``k`` highest-ranked vertices as ``(vertex, score)`` pairs."""
    scores = pagerank(graph, **kwargs)
    return sorted(scores.items(), key=lambda item: (-item[1], repr(item[0])))[:k]
