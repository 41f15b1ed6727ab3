"""The GraphGen Graph API.

Section 3.4 of the paper defines a seven-operation Java API that every
in-memory representation implements; all graph algorithms are written against
it so they run unchanged on EXP, C-DUP, DEDUP-1, DEDUP-2 and BITMAP:

* ``getVertices()``          → :meth:`Graph.get_vertices`
* ``getNeighbors(v)``        → :meth:`Graph.get_neighbors`
* ``existsEdge(v, u)``       → :meth:`Graph.exists_edge`
* ``addEdge / deleteEdge``   → :meth:`Graph.add_edge` / :meth:`Graph.delete_edge`
* ``addVertex / deleteVertex`` → :meth:`Graph.add_vertex` / :meth:`Graph.delete_vertex`

plus vertex properties (``get_property`` / ``set_property``).  Vertex
identifiers at this level are the *external* node IDs that came out of the
database (e.g. author IDs), never internal indexes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Iterator

from repro.exceptions import RepresentationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph

VertexId = Hashable


class Graph(ABC):
    """Abstract base class for every in-memory graph representation."""

    #: short name used in benchmark output ("EXP", "C-DUP", ...)
    representation_name: str = "abstract"

    # ------------------------------------------------------------------ #
    # the seven core operations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def get_vertices(self) -> Iterator[VertexId]:
        """Iterate over all (real) vertex IDs."""

    @abstractmethod
    def get_neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Iterate over the out-neighbors of ``vertex`` with duplicates
        removed (each logical neighbor exactly once)."""

    @abstractmethod
    def exists_edge(self, source: VertexId, target: VertexId) -> bool:
        """True if the logical (expanded) graph contains ``source -> target``."""

    @abstractmethod
    def add_vertex(self, vertex: VertexId, **properties: Any) -> None:
        """Add an isolated vertex (no-op properties allowed)."""

    @abstractmethod
    def delete_vertex(self, vertex: VertexId) -> None:
        """Remove a vertex and all its incident (logical) edges."""

    @abstractmethod
    def add_edge(self, source: VertexId, target: VertexId) -> None:
        """Add the logical edge ``source -> target``."""

    @abstractmethod
    def delete_edge(self, source: VertexId, target: VertexId) -> None:
        """Remove the logical edge ``source -> target``."""

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @abstractmethod
    def get_property(self, vertex: VertexId, key: str, default: Any = None) -> Any:
        """Value of property ``key`` on ``vertex`` (or ``default``)."""

    @abstractmethod
    def set_property(self, vertex: VertexId, key: str, value: Any) -> None:
        """Set property ``key`` on ``vertex``."""

    # ------------------------------------------------------------------ #
    # edge properties (optional; representations that carry them override)
    # ------------------------------------------------------------------ #
    def get_edge_property(
        self, source: VertexId, target: VertexId, key: str, default: Any = None
    ) -> Any:
        """Value of property ``key`` on the logical edge ``source -> target``.

        Edge properties are produced by aggregate extraction queries (e.g. a
        ``count(PubID)`` weight on co-author edges).  Representations that do
        not store edge properties return ``default``.
        """
        return default

    # ------------------------------------------------------------------ #
    # bulk snapshot hook (the seam between the logical API and the CSR
    # execution kernel; see repro.graph.kernel)
    # ------------------------------------------------------------------ #
    #: per-instance structural version; mutators call _bump_version() so the
    #: cached CSR snapshot can be invalidated (class attribute as default)
    _graph_version: int = 0
    #: (token, CSRGraph) of the last snapshot, or None
    _csr_cache: tuple[Any, "CSRGraph"] | None = None

    def snapshot_edges(self) -> Iterator[tuple[VertexId, list[VertexId]]]:
        """Bulk iteration: yield ``(vertex, out-neighbor list)`` per vertex.

        The default implementation walks ``get_vertices`` / ``get_neighbors``;
        representations override it with flat scans over their physical
        storage.  Order is the representation's canonical vertex order and
        per-vertex neighbor order — :class:`~repro.graph.kernel.CSRGraph`
        preserves both.
        """
        for vertex in self.get_vertices():
            yield vertex, list(self.get_neighbors(vertex))

    def snapshot(self) -> "CSRGraph":
        """The CSR snapshot of this graph's logical edge set (cached).

        The snapshot is rebuilt lazily after any structural mutation
        (tracked through the representation's version counters); repeated
        algorithm calls on an unmodified graph share one set of arrays.
        """
        from repro.graph.kernel import CSRGraph

        token = self._snapshot_token()
        cached = self._csr_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        snap = CSRGraph.from_graph(self)
        self._csr_cache = (token, snap)
        return snap

    def adopt_snapshot(self, csr: "CSRGraph") -> "CSRGraph":
        """Install an externally built or loaded snapshot as the cache entry.

        Used by :class:`repro.graph.snapshot_store.SnapshotStore` so that a
        snapshot loaded (mmap-backed) from disk serves subsequent
        ``snapshot()`` calls instead of being rebuilt.  The caller asserts
        that ``csr`` matches the graph's *current* logical structure; the
        entry is invalidated by the next structural mutation as usual.
        """
        self._csr_cache = (self._snapshot_token(), csr)
        return csr

    def cached_snapshot(self) -> "CSRGraph | None":
        """The current CSR snapshot if one is cached and still valid, else
        ``None`` — without triggering a (possibly expensive) build."""
        cached = self._csr_cache
        if cached is not None and cached[0] == self._snapshot_token():
            return cached[1]
        return None

    def _snapshot_token(self) -> Any:
        """Value that changes whenever the logical structure may have changed."""
        return self._graph_version

    def _bump_version(self) -> None:
        """Record a structural mutation (invalidates the snapshot cache)."""
        self._graph_version += 1

    # ------------------------------------------------------------------ #
    # derived conveniences (concrete)
    # ------------------------------------------------------------------ #
    def has_vertex(self, vertex: VertexId) -> bool:
        """True if ``vertex`` is present (default: linear scan; overridden)."""
        return any(v == vertex for v in self.get_vertices())

    def degree(self, vertex: VertexId) -> int:
        """Out-degree of ``vertex`` in the logical graph (duplicates removed)."""
        return sum(1 for _ in self.get_neighbors(vertex))

    def num_vertices(self) -> int:
        return sum(1 for _ in self.get_vertices())

    def num_edges(self) -> int:
        """Number of logical (expanded) directed edges.

        The default implementation iterates every vertex's neighbor list;
        representations override it when they can answer faster.
        """
        return sum(self.degree(v) for v in self.get_vertices())

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """Iterate over all logical directed edges."""
        for vertex in self.get_vertices():
            for neighbor in self.get_neighbors(vertex):
                yield vertex, neighbor

    # ------------------------------------------------------------------ #
    def _missing_vertex(self, vertex: VertexId) -> RepresentationError:
        return RepresentationError(
            f"vertex {vertex!r} is not in this {self.representation_name} graph"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.representation_name} |V|={self.num_vertices()}>"


class PropertyStore:
    """Shared helper holding vertex property dictionaries.

    Kept separate from the adjacency structures so that every representation
    can reuse it without multiple inheritance gymnastics.
    """

    def __init__(self) -> None:
        self._properties: dict[VertexId, dict[str, Any]] = {}

    def get(self, vertex: VertexId, key: str, default: Any = None) -> Any:
        return self._properties.get(vertex, {}).get(key, default)

    def set(self, vertex: VertexId, key: str, value: Any) -> None:
        self._properties.setdefault(vertex, {})[key] = value

    def set_many(self, vertex: VertexId, properties: dict[str, Any]) -> None:
        if properties:
            self._properties.setdefault(vertex, {}).update(properties)

    def drop_vertex(self, vertex: VertexId) -> None:
        self._properties.pop(vertex, None)


def check_same_vertex_set(a: Graph, b: Graph) -> bool:
    """True if two representations expose exactly the same vertex IDs."""
    return set(a.get_vertices()) == set(b.get_vertices())


def logical_edge_set(graph: Graph, vertices: Iterable[VertexId] | None = None) -> set[tuple[VertexId, VertexId]]:
    """The set of logical directed edges (optionally restricted to sources in
    ``vertices``).  Used by tests to compare representations for equivalence."""
    sources = graph.get_vertices() if vertices is None else vertices
    return {(u, v) for u in sources for v in graph.get_neighbors(u)}
