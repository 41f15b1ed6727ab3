"""Serialization and interoperability (edge lists, JSON, NetworkX)."""

from repro._lazy import lazy_exports

__all__ = [
    "read_condensed_json",
    "read_edge_list",
    "write_adjacency_json",
    "write_condensed_json",
    "write_edge_list",
    "from_networkx",
    "neighbors_match",
    "to_networkx",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.io.serialize": (
            "read_condensed_json",
            "read_edge_list",
            "write_adjacency_json",
            "write_condensed_json",
            "write_edge_list",
        ),
        "repro.io.networkx_adapter": ("from_networkx", "neighbors_match", "to_networkx"),
    },
)
