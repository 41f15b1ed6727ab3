"""Serialization and interoperability (edge lists, JSON, NetworkX)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "read_condensed_json": "repro.io.serialize",
        "read_edge_list": "repro.io.serialize",
        "write_adjacency_json": "repro.io.serialize",
        "write_condensed_json": "repro.io.serialize",
        "write_edge_list": "repro.io.serialize",
        "from_networkx": "repro.io.networkx_adapter",
        "neighbors_match": "repro.io.networkx_adapter",
        "to_networkx": "repro.io.networkx_adapter",
    },
)
