"""Shared behaviour of the representations backed by a condensed graph.

C-DUP, DEDUP-1 and BITMAP all wrap a :class:`~repro.graph.condensed.
CondensedGraph`; they differ only in one hook, ``_internal_neighbors_list(
node)``: the logical out-neighbours of internal real node ``node`` as a list
of internal IDs, each once, in ``get_neighbors`` order.  C-DUP de-duplicates
the one plain virtual-layer walk (:meth:`~repro.graph.condensed.
CondensedGraph.reachable_real_targets`), DEDUP-1 returns it as is, BITMAP
filters it by bitmap.  Everything else — vertex management, properties,
logical edge addition/deletion, the CSR snapshot build
(:meth:`repro.graph.kernel.CSRGraph._from_condensed`) — reads that hook or
the plain walk and lives here, so readers and mutators see one neighbour
set.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.exceptions import RepresentationError
from repro.graph.api import Graph, VertexId
from repro.graph.condensed import CondensedGraph


class CondensedBackedGraph(Graph):
    """Base class for representations that keep the condensed structure."""

    #: vertex-property writes through this API (not structural, so they do
    #: not move the snapshot token; :meth:`write_token` counts them)
    _property_writes = 0

    def __init__(self, condensed: CondensedGraph) -> None:
        self._cg = condensed

    # ------------------------------------------------------------------ #
    @property
    def condensed(self) -> CondensedGraph:
        """The underlying condensed structure (shared, not copied)."""
        return self._cg

    # ------------------------------------------------------------------ #
    # vertex iteration / management
    # ------------------------------------------------------------------ #
    def get_vertices(self) -> Iterator[VertexId]:
        for node in self._cg.real_nodes():
            yield self._cg.external(node)

    def has_vertex(self, vertex: VertexId) -> bool:
        return self._cg.has_external(vertex)

    def num_vertices(self) -> int:
        return self._cg.num_real_nodes

    def add_vertex(self, vertex: VertexId, **properties: Any) -> None:
        if properties:
            self._property_writes += 1
        self._cg.add_real_node(vertex, **properties)

    def delete_vertex(self, vertex: VertexId) -> None:
        if not self._cg.has_external(vertex):
            raise self._missing_vertex(vertex)
        self._cg.remove_real_node(self._cg.internal(vertex))

    def _snapshot_token(self):
        # the wrapper's own version covers bitmap/auxiliary mutations; the
        # condensed version covers direct mutation of the shared structure
        return (self._graph_version, self._cg.version)

    def write_token(self) -> tuple:
        """Changes whenever anything is written through this API: the
        structure (the snapshot token) or a vertex property."""
        return (self._snapshot_token(), self._property_writes)

    # ------------------------------------------------------------------ #
    # logical neighbours: every reader goes through the subclass's
    # ``_internal_neighbors_list`` hook
    # ------------------------------------------------------------------ #
    def get_neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        if not self._cg.has_external(vertex):
            raise self._missing_vertex(vertex)
        external = self._cg.external
        for neighbor in self._internal_neighbors_list(self._cg.internal(vertex)):
            yield external(neighbor)

    def exists_edge(self, source: VertexId, target: VertexId) -> bool:
        if not self._cg.has_external(source) or not self._cg.has_external(target):
            return False
        src = self._cg.internal(source)
        return self._cg.internal(target) in self._internal_neighbors_list(src)

    # ------------------------------------------------------------------ #
    # logical edge mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, source: VertexId, target: VertexId) -> None:
        """Add a logical edge as a direct real→real condensed edge.

        The edge is skipped when it already exists logically (adding it again
        would introduce duplication).
        """
        self.add_vertex(source)
        self.add_vertex(target)
        if self.exists_edge(source, target):
            return
        self._cg.add_edge(self._cg.internal(source), self._cg.internal(target))

    def delete_edge(self, source: VertexId, target: VertexId) -> None:
        """Remove a logical edge.

        If a direct real→real edge exists it is removed; otherwise every
        virtual path carrying the edge is *materialised*: the source's edge
        into the virtual node is dropped and direct edges are added to the
        remaining targets of that virtual node that the source no longer
        reaches through its own walk.  This mirrors the paper's observation
        that ``deleteEdge`` on condensed representations is an involved
        operation.
        """
        if not self.exists_edge(source, target):
            raise RepresentationError(f"edge {source!r}->{target!r} does not exist")
        src = self._cg.internal(source)
        dst = self._cg.internal(target)
        if self._cg.has_edge(src, dst):
            self._cg.remove_edge(src, dst)

        # remove the edge through every virtual node that still carries it
        for virtual in list(self._cg.out(src)):
            if not self._cg.is_virtual(virtual):
                continue
            reachable = set(self._cg.reachable_real_targets(virtual))
            if dst not in reachable:
                continue
            self._cg.remove_edge(src, virtual)
            # the representation's own walk: a BITMAP source may be masked
            # off a target at some other virtual node
            existing = set(self._internal_neighbors_list(src))
            for other in reachable:
                if other != dst and other not in existing:
                    self._cg.add_edge(src, other)
                    existing.add(other)
        # the logical edge is gone, and its aggregate weight with it
        self._cg.edge_annotations.pop((src, dst), None)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    def get_edge_property(
        self, source: VertexId, target: VertexId, key: str, default: Any = None
    ) -> Any:
        """Edge properties of direct real→real condensed edges (aggregate
        weights); edges carried by virtual nodes have no properties."""
        if not self._cg.has_external(source) or not self._cg.has_external(target):
            return default
        annotation = self._cg.edge_annotations.get(
            (self._cg.internal(source), self._cg.internal(target))
        )
        if annotation is None:
            return default
        return annotation.get(key, default)

    def get_property(self, vertex: VertexId, key: str, default: Any = None) -> Any:
        if not self._cg.has_external(vertex):
            raise self._missing_vertex(vertex)
        node = self._cg.internal(vertex)
        return self._cg.node_properties.get(node, {}).get(key, default)

    def set_property(self, vertex: VertexId, key: str, value: Any) -> None:
        if not self._cg.has_external(vertex):
            raise self._missing_vertex(vertex)
        node = self._cg.internal(vertex)
        properties = self._cg.node_properties
        # replaced, not updated: a copy of the graph may share the old dict
        properties[node] = {**properties.get(node, {}), key: value}
        self._property_writes += 1

    # ------------------------------------------------------------------ #
    # statistics shared by all condensed-backed representations
    # ------------------------------------------------------------------ #
    def condensed_edge_count(self) -> int:
        return self._cg.num_condensed_edges
