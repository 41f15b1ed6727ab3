"""Shared by the dynamic-algorithm maintainers: delta decoding, and the one
boundary where their dense vectors meet external vertex IDs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.graph.api import VertexId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph


@dataclass(frozen=True)
class DeltaView:
    """Net view of a delta-record window, as the maintainers consume it.

    Last-op-wins per directed pair (the same netting
    :class:`~repro.graph.delta.DeltaOverlay` applies when merging
    snapshots), so a maintainer never sees an edge that was added and
    removed inside the window.
    """

    #: net-present directed pairs, first-touch order
    added: tuple[tuple[VertexId, VertexId], ...] = ()
    #: net-absent directed pairs, first-touch order
    removed: tuple[tuple[VertexId, VertexId], ...] = ()
    #: vertices introduced by ``V`` records, first-appearance order
    new_vertices: tuple[VertexId, ...] = ()
    #: raw records in the window (maintenance-cost accounting)
    record_count: int = 0
    #: touched pairs that existed *before* the window — their first
    #: effective op was a removal.  The journal only records effective
    #: deltas, so a pair whose first op is ``+`` was absent beforehand;
    #: maintainers that reconstruct the pre-delta structure (incremental
    #: PageRank's residual) need this to tell a genuinely new edge from a
    #: removed-then-re-added one the netting collapses to ``added``.
    prior_present: frozenset = frozenset()

    @property
    def empty(self) -> bool:
        return self.record_count == 0


def build_delta_view(records: list[tuple[str, Any]]) -> DeltaView:
    """Net a raw record window into a :class:`DeltaView`."""
    last: dict[tuple[VertexId, VertexId], str] = {}
    first: dict[tuple[VertexId, VertexId], str] = {}
    vertices: list[VertexId] = []
    seen: set[VertexId] = set()
    for op, payload in records:
        if op == "V":
            if payload not in seen:
                seen.add(payload)
                vertices.append(payload)
            continue
        last[payload] = op
        if payload not in first:
            first[payload] = op
    return DeltaView(
        added=tuple(pair for pair, op in last.items() if op == "+"),
        removed=tuple(pair for pair, op in last.items() if op == "-"),
        new_vertices=tuple(vertices),
        record_count=len(records),
        prior_present=frozenset(pair for pair, op in first.items() if op == "-"),
    )


def encode(csr: "CSRGraph", values: dict) -> list:
    """A decoded (external-ID keyed) result as the per-dense-index vector the
    maintainers carry; a vertex without an entry (BFS: unreached) holds ``-1``."""
    return [values.get(vertex, -1) for vertex in csr.external_ids]


def decode(maintainer: str, csr: "CSRGraph", dense: list) -> dict:
    """A dense vector as the fresh external-ID keyed dict a result reports —
    for BFS, unreached vertices (``-1``) have no entry.  The one decoder of
    the maintainable algorithms: their runners, a plan's inline and sweep
    paths and an incremental serve all decode here."""
    if maintainer == "bfs":
        return {v: d for v, d in zip(csr.external_ids, dense) if d >= 0}
    return csr.decode(dense)
