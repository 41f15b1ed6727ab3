"""In-memory graph representations.

* :class:`CondensedGraph` — the raw condensed structure (real + virtual nodes).
* :class:`ExpandedGraph` (EXP) — fully materialised adjacency lists.
* :class:`CDupGraph` (C-DUP) — condensed with on-the-fly deduplication.
* :class:`Dedup1Graph` (DEDUP-1) — condensed, duplication removed structurally.
* :class:`Dedup2Graph` (DEDUP-2) — membership representation for symmetric
  single-layer graphs.
* :class:`BitmapGraph` (BITMAP) — condensed plus traversal bitmaps.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Graph": "repro.graph.api",
        "PropertyStore": "repro.graph.api",
        "VertexId": "repro.graph.api",
        "logical_edge_set": "repro.graph.api",
        "check_same_vertex_set": "repro.graph.api",
        "CSRGraph": "repro.graph.kernel",
        "get_backend": "repro.graph.backend",
        "set_default_backend": "repro.graph.backend",
        "SnapshotHeader": "repro.graph.snapshot_store",
        "SnapshotStore": "repro.graph.snapshot_store",
        "load_snapshot": "repro.graph.snapshot_store",
        "save_snapshot": "repro.graph.snapshot_store",
        "CondensedGraph": "repro.graph.condensed",
        "condensed_from_edges": "repro.graph.condensed",
        "CondensedBackedGraph": "repro.graph.condensed_base",
        "ExpandedGraph": "repro.graph.expanded",
        "CDupGraph": "repro.graph.cdup",
        "Dedup1Graph": "repro.graph.dedup1",
        "Dedup2Graph": "repro.graph.dedup2",
        "BitmapGraph": "repro.graph.bitmap",
        "RepresentationStats": "repro.graph.analysis",
        "condensed_from_expanded": "repro.graph.analysis",
        "degree_histogram": "repro.graph.analysis",
        "duplication_profile": "repro.graph.analysis",
        "expanded_from_condensed": "repro.graph.analysis",
        "logically_equivalent": "repro.graph.analysis",
        "representation_stats": "repro.graph.analysis",
    },
)
