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

__all__ = [
    "Graph",
    "PropertyStore",
    "VertexId",
    "logical_edge_set",
    "check_same_vertex_set",
    "CSRGraph",
    "get_backend",
    "set_default_backend",
    "SnapshotHeader",
    "SnapshotStore",
    "load_snapshot",
    "save_snapshot",
    "CondensedGraph",
    "condensed_from_edges",
    "CondensedBackedGraph",
    "ExpandedGraph",
    "CDupGraph",
    "Dedup1Graph",
    "Dedup2Graph",
    "BitmapGraph",
    "RepresentationStats",
    "condensed_from_expanded",
    "degree_histogram",
    "duplication_profile",
    "expanded_from_condensed",
    "logically_equivalent",
    "representation_stats",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.graph.api": (
            "Graph",
            "PropertyStore",
            "VertexId",
            "logical_edge_set",
            "check_same_vertex_set",
        ),
        "repro.graph.backend": ("get_backend", "set_default_backend"),
        "repro.graph.kernel": ("CSRGraph",),
        "repro.graph.snapshot_store": (
            "SnapshotHeader",
            "SnapshotStore",
            "load_snapshot",
            "save_snapshot",
        ),
        "repro.graph.condensed": ("CondensedGraph", "condensed_from_edges"),
        "repro.graph.condensed_base": ("CondensedBackedGraph",),
        "repro.graph.expanded": ("ExpandedGraph",),
        "repro.graph.cdup": ("CDupGraph",),
        "repro.graph.dedup1": ("Dedup1Graph",),
        "repro.graph.dedup2": ("Dedup2Graph",),
        "repro.graph.bitmap": ("BitmapGraph",),
        "repro.graph.analysis": (
            "RepresentationStats",
            "condensed_from_expanded",
            "degree_histogram",
            "duplication_profile",
            "expanded_from_condensed",
            "logically_equivalent",
            "representation_stats",
        ),
    },
)
