"""The one boundary where the dynamic-algorithm maintainers' dense vectors
meet external vertex IDs."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph


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
