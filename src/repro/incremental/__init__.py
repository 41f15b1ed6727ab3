"""Dynamic algorithms: maintain previous results over a delta stream.

The complement of :mod:`repro.graph.delta`: once mutations are journaled as
edge deltas instead of invalidating the snapshot, results computed *before*
the mutation can often be repaired instead of recomputed — the
Berkholz-style "cheap re-answering after constant-time updates" frame the
ROADMAP names for the paper's Section 4.4 mutation workloads.

Each maintainer follows one contract — dense in, dense out::

    maintain(prev, csr, delta, params, backend) -> dense | None

``prev`` is the algorithm's previous result as a per-dense-index list (the
form every kernel returns; ``-1`` where a vertex has no value — BFS:
unreached), ``csr`` the *current* merged snapshot, ``delta`` a
:class:`~repro.incremental.base.DeltaView` of the records the previous
result has not absorbed, ``params`` the request's effective parameters and
``backend`` the resolved kernel backend.  ``prev`` is exact for the prefix
``[0, len(prev))`` of ``csr``'s vertices: within one journal generation the
overlay merges only ever *append* vertices, so a dense index never changes
meaning and nothing is re-keyed; a maintainer treats ``prev`` as read-only
(it may return it unchanged).  External IDs exist only at the boundary:
:func:`~repro.incremental.base.encode` when a cold result is first
remembered, :func:`~repro.incremental.base.decode` when a plan asks for the
values.  The returned vector (length ``csr.n``) must satisfy the same
equivalence contract the backends do: integer-valued results (components,
BFS) **equal** a cold recompute on the current snapshot bit-for-bit;
float-valued results (PageRank) match within the documented tolerance under
the same termination contract.  ``None`` means "this delta cannot be
repaired exactly" (e.g. a deletion that may split a component) and the
caller falls back to the cold kernel; it is never a verdict on the delta's
*width* — a wide delta costs the maintainers one dense pass, not a refusal.

Registered maintainers (:data:`MAINTAINERS`) are wired into
``PLAN_ALGORITHMS`` routing via ``PlanAlgorithm.maintainer``, so both the
scheduled and compiled plan paths serve incremental nodes whenever a
previous result plus a replayable journal window are available.
"""

from __future__ import annotations

from repro.incremental.base import DeltaView, build_delta_view, decode, encode
from repro.incremental.bfs import maintain_bfs
from repro.incremental.components import maintain_components
from repro.incremental.pagerank import maintain_pagerank

#: maintainer name (``PlanAlgorithm.maintainer``) -> maintain callable
MAINTAINERS = {
    "components": maintain_components,
    "pagerank": maintain_pagerank,
    "bfs": maintain_bfs,
}

__all__ = [
    "DeltaView",
    "build_delta_view",
    "encode",
    "decode",
    "MAINTAINERS",
    "maintain_components",
    "maintain_pagerank",
    "maintain_bfs",
]
