"""Incremental PageRank: a localized correction solve, falling back to a
warm-started power iteration only where the correction's structure breaks.

PageRank is linear in its source term: with ``P`` the out-degree-normalised
transition matrix, the fixed point satisfies ``r = (1-d)/n + d P^T r``.  A
small edge delta changes a handful of *rows* of ``P``, so the new fixed
point differs from the previous one by a correction ``e`` that solves

    e = d P^T e + rho,     rho = d (P - P0)^T r_prev

``rho`` is supported only on the out-neighborhoods of vertices whose
adjacency changed, and the Neumann series ``e = sum_t (d P^T)^t rho``
spreads that support one hop per term while its mass shrinks by the damping
factor.  On a graph whose delta neighborhood is small relative to the whole
(the k << m regime the journal is built for), the series converges after
touching a region far smaller than one dense sweep — the classic dynamic-
PageRank observation (Chien et al.; Bahmani et al., VLDB'10) that updates
are local.

This module computes ``rho`` (python work proportional to the changed
sources' out-degrees) and hands the series to the kernel backend
(``backend.pagerank_correction``).  There is **no work budget**: the numpy
kernel keeps the frontier as an index array, so a term costs the frontier's
edge volume while the frontier reaches under a quarter of the edges, and
one sweep of the edge arrays — what a dense power-iteration step costs —
once it reaches more (a *dense push*, same floats); a wide delta is never
tried sparsely and then redone densely.  Termination mirrors
the kernels' contract: the series is truncated once its per-term L1 mass
drops below the same ``tolerance``, capped at the same ``max_iterations``,
so a converged maintained result sits within the same distance of the true
fixed point as a converged cold run (L∞ within the backends' documented
1e-9 for tolerances at or below 1e-10).

The correction is *exact about structure*: it distinguishes a genuinely new
edge from a removed-then-re-added one via
:attr:`~repro.graph.delta.DeltaOverlay.prior_present`.  It is refused
only where its structure does not hold — the vertex set changed (``(1-d)/n``
shifted at every vertex), a vertex dangles (its redistributed mass couples
every vertex, so the correction is dense from the first term), or a changed
source dangled before the delta.  Those cases restart power iteration from
the previous ranks (new vertices seeded uniformly, renormalised) — strictly
better-seeded than a cold run, same termination contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.delta import DeltaOverlay
    from repro.graph.kernel import CSRGraph


def maintain_pagerank(
    prev: list[float],
    csr: "CSRGraph",
    delta: "DeltaOverlay",
    params: dict,
    backend: "KernelBackend",
) -> list[float] | None:
    n = csr.n
    if n == 0:
        return []
    damping = params["damping"]
    if len(prev) == n:
        residual = _residual(prev, csr, delta, damping)
        if residual is not None:
            if not residual:
                return prev
            repaired = backend.pagerank_correction(
                csr, prev, residual, damping, params["max_iterations"], params["tolerance"]
            )
            if repaired is not None:
                return repaired

    initial = prev + [1.0 / n] * (n - len(prev))
    total = sum(initial)
    if total <= 0.0:
        return None
    return backend.pagerank(
        csr,
        damping,
        params["max_iterations"],
        params["tolerance"],
        initial=[rank / total for rank in initial],
    )


def _residual(
    prev: list[float], csr: "CSRGraph", delta: "DeltaOverlay", damping: float
) -> dict[int, float] | None:
    """``rho = d (P - P0)^T r_prev`` by dense index, supported on the changed
    out-neighborhoods; ``None`` when a changed source dangles before or after
    the delta (dense coupling: use the warm start)."""
    index = csr._index
    offsets = csr.offsets
    targets = csr.targets
    # per-source structural delta, old-graph membership resolved through
    # prior_present (a net-added pair that was present before the window is
    # a remove+re-add: structurally a no-op; a net-removed pair that was not
    # was added and removed inside the window: it never existed)
    new_out: dict[int, list[int]] = {}
    old_out: dict[int, list[int]] = {}
    for pair in delta.added:
        if pair not in delta.prior_present:
            new_out.setdefault(index[pair[0]], []).append(index[pair[1]])
    for pair in delta.removed:
        if pair in delta.prior_present:
            old_out.setdefault(index[pair[0]], []).append(index[pair[1]])

    residual: dict[int, float] = {}
    for u in new_out.keys() | old_out.keys():
        start, end = offsets[u], offsets[u + 1]
        added_here = new_out.get(u, ())
        removed_here = old_out.get(u, ())
        new_deg = end - start
        old_deg = new_deg - len(added_here) + len(removed_here)
        if new_deg == 0 or old_deg <= 0:
            return None
        share_new = damping * prev[u] / new_deg
        share_old = damping * prev[u] / old_deg
        added_set = set(added_here)
        for v in targets[start:end]:
            residual[v] = residual.get(v, 0.0) + share_new - (
                0.0 if v in added_set else share_old
            )
        for v in removed_here:
            residual[v] = residual.get(v, 0.0) - share_old
    return {v: value for v, value in residual.items() if value != 0.0}
