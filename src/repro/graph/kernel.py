"""The CSR execution kernel: array-backed snapshots of any Graph.

The paper's EXP representation is explicitly a CSR-variant ("arrays of
arrays", Section 4.3), yet the Graph API exposes every representation through
per-vertex iterators over hashable external IDs.  Whole-graph algorithms —
PageRank, BFS, connected components — pay a hash lookup and a generator
resumption per edge per pass when run directly against that API.

:class:`CSRGraph` is the physical execution layer underneath the logical
API: a frozen compressed-sparse-row snapshot of the *logical* (expanded,
de-duplicated) graph with

* ``offsets`` — ``array('q')`` of length ``n + 1``,
* ``targets`` — ``array('q')`` of length ``m`` holding dense vertex indexes,
* a codec between dense indexes (``0 .. n-1``) and the external vertex IDs.

Every algorithm in :mod:`repro.algorithms` is two-phase: encode the input
graph into a ``CSRGraph`` once, run the kernel over dense ``int`` indexes and
flat lists, decode the result back to external IDs at the boundary.  The
vertex-centric framework and the Giraph adapters schedule over the same
snapshot, so all three execution layers share one physical core.

Construction goes through the :meth:`repro.graph.api.Graph.snapshot_edges`
bulk-iteration hook, with fast paths for the condensed representations
(direct virtual-layer expansion in internal-integer space, skipping the
per-vertex ``get_neighbors`` generators and all external-ID hashing) and for
:class:`~repro.graph.expanded.ExpandedGraph` (adjacency-dict flattening).

Snapshots are immutable; :meth:`repro.graph.api.Graph.snapshot` caches one
per graph and invalidates it through the representations' version counters,
so repeated algorithm calls on an unmodified graph reuse the same arrays.

Invariants
----------
* vertex order equals the order of ``Graph.get_vertices()`` at snapshot time;
* per-vertex target order equals the order of ``Graph.get_neighbors()``;
* two snapshots of the same unmodified graph are element-wise identical,

which together make the kernels bit-for-bit deterministic and let ported
algorithms reproduce the exact floating-point results of the pre-kernel
implementations (same summation order).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Iterator

from repro.exceptions import RepresentationError
from repro.graph.api import VertexId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.api import Graph


class CSRGraph:
    """Immutable compressed-sparse-row snapshot of a logical graph."""

    #: process-wide count of snapshots *built* from a live graph
    #: (:meth:`from_graph`; file loads are not builds).  Instrumentation for
    #: the session layer's amortisation contract: tests assert that a
    #: multi-algorithm :meth:`repro.session.AnalysisPlan.run` moves this
    #: counter by exactly one.
    build_count = 0

    __slots__ = (
        "offsets",
        "targets",
        "external_ids",
        "_index",
        "source",
        "_offsets_list",
        "_targets_list",
        "_undirected",
        "_degrees",
        "_backend_cache",
        "_buffer_owner",
        "_content_hash",
    )

    def __init__(
        self,
        offsets: array,
        targets: array,
        external_ids: list[VertexId],
        source: "Graph | None" = None,
        *,
        index: dict[VertexId, int] | None = None,
    ) -> None:
        self.offsets = offsets
        self.targets = targets
        self.external_ids = external_ids
        #: external ID -> dense index.  ``index`` is a caller that already
        #: holds the codec (the overlay merges) handing it over instead of
        #: having it re-derived; never mutated, so snapshots may share one
        self._index: dict[VertexId, int] = (
            index
            if index is not None
            else {external: i for i, external in enumerate(external_ids)}
        )
        if len(self._index) != len(external_ids):
            seen: set = set()
            duplicates: list[VertexId] = []
            for external in external_ids:
                if external in seen and external not in duplicates:
                    duplicates.append(external)
                seen.add(external)
            raise RepresentationError(
                "duplicate external vertex IDs in snapshot: "
                + ", ".join(repr(d) for d in duplicates[:5])
                + ("..." if len(duplicates) > 5 else "")
            )
        #: the Graph this snapshot was taken from (for property reads)
        self.source = source
        self._offsets_list: list[int] | None = None
        self._targets_list: list[int] | None = None
        self._undirected: list[set[int]] | None = None
        self._degrees: list[int] | None = None
        #: scratch space for kernel backends (e.g. cached NumPy views over the
        #: offset/target buffers, symmetrised CSR forms).  Snapshots are
        #: immutable, so entries never go stale; a structural mutation of the
        #: source graph bumps its version counter and the next
        #: ``Graph.snapshot()`` call builds a fresh CSRGraph with an empty
        #: cache, which is how these materialisations are invalidated.
        self._backend_cache: dict[str, Any] = {}
        #: keeps an mmap (or other buffer provider) alive for zero-copy loads
        self._buffer_owner: Any = None
        self._content_hash: bytes | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Build a snapshot of ``graph``, using the fastest available path."""
        from repro.graph.condensed_base import CondensedBackedGraph

        CSRGraph.build_count += 1
        if isinstance(graph, CondensedBackedGraph):
            return cls._from_condensed(graph)
        return cls._from_snapshot_edges(graph)

    @classmethod
    def _from_snapshot_edges(cls, graph: "Graph") -> "CSRGraph":
        """Generic path: consume the ``snapshot_edges`` bulk-iteration hook."""
        external_ids: list[VertexId] = []
        neighbor_lists: list[list[VertexId]] = []
        for vertex, neighbors in graph.snapshot_edges():
            external_ids.append(vertex)
            neighbor_lists.append(neighbors)
        index = {external: i for i, external in enumerate(external_ids)}

        offsets = array("q", [0] * (len(external_ids) + 1))
        targets_list: list[int] = []
        append = targets_list.append
        for i, neighbors in enumerate(neighbor_lists):
            for neighbor in neighbors:
                append(index[neighbor])
            offsets[i + 1] = len(targets_list)
        return cls(offsets, array("q", targets_list), external_ids, source=graph)

    @classmethod
    def _from_condensed(cls, graph: Any) -> "CSRGraph":
        """Fast path for condensed-backed representations.

        Expands the virtual layer directly in internal-integer space: real
        nodes are renumbered densely, neighbor targets are produced by the
        representation's internal traversal (hash-set, invariant or
        bitmap-guided), and external IDs are materialised once per vertex
        instead of once per edge.
        """
        cg = graph.condensed
        internal_nodes = list(cg.real_nodes())
        dense_of = {node: i for i, node in enumerate(internal_nodes)}

        offsets = array("q", [0] * (len(internal_nodes) + 1))
        targets_list: list[int] = []
        extend = targets_list.extend
        expand = graph._internal_neighbors_list
        for i, node in enumerate(internal_nodes):
            extend(dense_of[t] for t in expand(node))
            offsets[i + 1] = len(targets_list)

        external = cg.external
        external_ids = [external(node) for node in internal_nodes]
        return cls(offsets, array("q", targets_list), external_ids, source=graph)

    # ------------------------------------------------------------------ #
    # persistence (see repro.graph.snapshot_store for the file format)
    # ------------------------------------------------------------------ #
    @property
    def content_hash(self) -> bytes:
        """SHA-256 of the snapshot's logical content (arrays + codec).

        Two snapshots of the same unmodified graph hash identically; any
        structural change produces a different hash, which is how persisted
        snapshot files are checked for staleness.
        """
        if self._content_hash is None:
            from repro.graph.snapshot_store import compute_content_hash, encode_codec

            self._content_hash = compute_content_hash(
                self.offsets, self.targets, encode_codec(self.external_ids)
            )
        return self._content_hash

    def save(self, path) -> "Any":
        """Persist this snapshot to ``path`` (mmap-able binary format)."""
        from repro.graph.snapshot_store import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load(
        cls, path, *, mmap: bool = True, verify: bool = True, source: "Graph | None" = None
    ) -> "CSRGraph":
        """Load a snapshot persisted with :meth:`save`.

        With ``mmap=True`` the arrays are zero-copy views over a read-only
        memory mapping of the file (shared page-cache copy across processes).
        """
        from repro.graph.snapshot_store import load_snapshot

        return load_snapshot(path, mmap=mmap, verify=verify, source=source)

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.external_ids)

    @property
    def num_edges(self) -> int:
        """Number of (logical, directed) edges."""
        return len(self.targets)

    def __len__(self) -> int:
        return len(self.external_ids)

    # ------------------------------------------------------------------ #
    # codec
    # ------------------------------------------------------------------ #
    def index(self, external: VertexId) -> int:
        """Dense index of an external vertex ID."""
        try:
            return self._index[external]
        except KeyError:
            raise RepresentationError(
                f"vertex {external!r} is not in this snapshot"
            ) from None

    def external(self, index: int) -> VertexId:
        """External ID of a dense index."""
        return self.external_ids[index]

    def has_vertex(self, external: VertexId) -> bool:
        return external in self._index

    def decode(self, values: list) -> dict[VertexId, Any]:
        """Zip a dense per-vertex value list back onto external IDs."""
        return dict(zip(self.external_ids, values))

    # ------------------------------------------------------------------ #
    # kernel-facing views
    # ------------------------------------------------------------------ #
    @property
    def offsets_list(self) -> list[int]:
        """``offsets`` as a plain list (cached; faster to index in kernels)."""
        if self._offsets_list is None:
            self._offsets_list = self.offsets.tolist()
        return self._offsets_list

    @property
    def targets_list(self) -> list[int]:
        """``targets`` as a plain list (cached; faster to index in kernels)."""
        if self._targets_list is None:
            self._targets_list = self.targets.tolist()
        return self._targets_list

    def neighbors(self, index: int) -> array:
        """Dense out-neighbor indexes of ``index`` (a zero-copy-ish slice)."""
        return self.targets[self.offsets[index] : self.offsets[index + 1]]

    def neighbor_set(self, index: int) -> set[int]:
        """Out-neighbors of ``index`` as a set of dense indexes."""
        return set(self.targets[self.offsets[index] : self.offsets[index + 1]])

    def out_degree(self, index: int) -> int:
        return self.offsets[index + 1] - self.offsets[index]

    def degrees(self) -> list[int]:
        """Out-degree per dense index (cached; snapshots are immutable, so
        repeated algorithm calls — including on mmap-backed snapshots, whose
        offsets are memoryviews and comparatively slow to index — share one
        materialised list)."""
        if self._degrees is None:
            offsets = self.offsets_list
            self._degrees = [offsets[i + 1] - offsets[i] for i in range(self.n)]
        return self._degrees

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """All edges as dense ``(source, target)`` index pairs."""
        offsets = self.offsets_list
        targets = self.targets_list
        for u in range(self.n):
            for e in range(offsets[u], offsets[u + 1]):
                yield u, targets[e]

    def is_symmetric(self) -> bool:
        """True if every edge ``u → v`` has its reverse ``v → u``.

        The paper's co-occurrence extractions are symmetric; the superstep
        programs in :mod:`repro.vertexcentric.programs` gather from
        out-neighbors and are exact only on symmetric graphs.
        """
        edges = set(self.iter_edges())
        return all((v, u) in edges for (u, v) in edges)

    def undirected_sets(self) -> list[set[int]]:
        """Symmetrised adjacency (``u ~ v`` iff ``u→v`` or ``v→u``) as a list
        of dense-index sets with self-loops dropped.  Cached: triangles,
        k-core and similarity kernels all start from this view.

        When another consumer (e.g. the NumPy backend) already derived the
        backend-neutral :meth:`undirected_csr`, the sets are rebuilt from
        those shared arrays instead of re-symmetrising the edge list."""
        if self._undirected is None:
            neutral = self._backend_cache.get("und_csr")
            if neutral is not None:
                offsets, targets = neutral
                self._undirected = [
                    set(targets[offsets[u] : offsets[u + 1]]) for u in range(self.n)
                ]
            else:
                adjacency: list[set[int]] = [set() for _ in range(self.n)]
                offsets = self.offsets_list
                targets = self.targets_list
                for u in range(self.n):
                    for e in range(offsets[u], offsets[u + 1]):
                        v = targets[e]
                        if v != u:
                            adjacency[u].add(v)
                            adjacency[v].add(u)
                self._undirected = adjacency
        return self._undirected

    def undirected_csr(self) -> tuple[array, array]:
        """Symmetrised, deduplicated adjacency as a backend-neutral sorted CSR:
        ``('q')`` offset/target arrays with each row ascending, self-loops
        dropped — the same logical view as :meth:`undirected_sets`.

        Cached in ``_backend_cache`` under the single backend-independent key
        ``"und_csr"`` so a session that runs python *and* numpy kernels over
        one snapshot derives the symmetrised form once: the NumPy backend
        wraps these arrays zero-copy (and publishes its own vectorised build
        here), while :meth:`undirected_sets` converts in either direction."""
        neutral = self._backend_cache.get("und_csr")
        if neutral is None:
            if self._undirected is not None:
                rows: list[list[int]] = [sorted(s) for s in self._undirected]
            else:
                sets: list[set[int]] = [set() for _ in range(self.n)]
                offsets_list = self.offsets_list
                targets_list = self.targets_list
                for u in range(self.n):
                    for e in range(offsets_list[u], offsets_list[u + 1]):
                        v = targets_list[e]
                        if v != u:
                            sets[u].add(v)
                            sets[v].add(u)
                rows = [sorted(s) for s in sets]
            offsets = array("q", [0])
            targets = array("q")
            for row in rows:
                targets.extend(row)
                offsets.append(len(targets))
            neutral = self._backend_cache["und_csr"] = (offsets, targets)
        return neutral

    # ------------------------------------------------------------------ #
    # property pass-through (snapshots are structural; properties live on
    # the source representation)
    # ------------------------------------------------------------------ #
    def get_property(self, index: int, key: str, default: Any = None) -> Any:
        """Property ``key`` of the vertex at ``index``, read from the source
        graph the snapshot was taken from."""
        if self.source is None:
            return default
        return self.source.get_property(self.external_ids[index], key, default)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<CSRGraph n={self.n} m={self.num_edges}>"


# --------------------------------------------------------------------------- #
# shared traversal kernels (used by several algorithm modules)
# --------------------------------------------------------------------------- #
def bfs_distances_kernel(
    csr: CSRGraph, source: int, max_depth: int | None = None
) -> list[int]:
    """Hop distances from dense index ``source``; ``-1`` marks unreachable.

    Level-synchronous expansion; vertices are discovered in exactly the same
    order as a FIFO BFS that follows snapshot target order.
    """
    offsets = csr.offsets_list
    targets = csr.targets_list
    distances = [-1] * csr.n
    distances[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: list[int] = []
        push = next_frontier.append
        for u in frontier:
            for e in range(offsets[u], offsets[u + 1]):
                v = targets[e]
                if distances[v] < 0:
                    distances[v] = depth
                    push(v)
        frontier = next_frontier
    return distances


def bfs_order_kernel(csr: CSRGraph, source: int) -> list[int]:
    """Dense indexes in BFS visit order from ``source``."""
    offsets = csr.offsets_list
    targets = csr.targets_list
    seen = bytearray(csr.n)
    seen[source] = 1
    order = [source]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for e in range(offsets[u], offsets[u + 1]):
            v = targets[e]
            if not seen[v]:
                seen[v] = 1
                order.append(v)
    return order


def bfs_parents_kernel(csr: CSRGraph, source: int) -> list[int]:
    """BFS-tree parent per dense index (``-1`` = root or unreachable)."""
    offsets = csr.offsets_list
    targets = csr.targets_list
    parents = [-2] * csr.n  # -2 = undiscovered
    parents[source] = -1
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for e in range(offsets[u], offsets[u + 1]):
            v = targets[e]
            if parents[v] == -2:
                parents[v] = u
                queue.append(v)
    return parents
