"""The condensed (C-DUP) graph data structure.

This is the physical structure Section 4.1 of the paper defines.  For an
output graph ``G(V, E)``, the condensed graph ``GC(V', E')`` contains

* one node per *real* node ``u`` (conceptually split into a source copy
  ``u_s`` and a target copy ``u_t``; physically stored once),
* any number of *virtual* nodes (one per distinct value of each large-output
  join attribute),
* directed edges real→virtual, virtual→virtual, virtual→real and (after
  deduplication or preprocessing) direct real→real edges,

such that ``u → v`` is an edge of the expanded graph iff there is a directed
path from ``u_s`` to ``v_t`` in ``GC``.  ``GC`` is always a DAG because the
extraction queries are acyclic.

Internal encoding
-----------------
Real nodes are mapped to dense non-negative integers (``0, 1, 2, ...``);
virtual nodes get negative integers (``-1, -2, ...``).  ``succ[n]`` holds the
out-adjacency of ``n``'s source side, ``pred[n]`` the in-adjacency of its
target side.  External (database) node IDs are preserved and exposed through
:meth:`external` / :meth:`internal`.  :meth:`CondensedGraph.copy` shares
every row and property dict until one side writes it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.exceptions import RepresentationError


class CondensedCounters:
    """Process-global instrumentation (read as deltas, like
    ``CSRGraph.rewalk_count``): the clock-free work pin of copy-on-write.
    A class of its own: a write to a ``CondensedGraph`` class attribute
    would invalidate the attribute caches of every graph's lookups."""

    #: adjacency rows copied on their first write after a
    #: :meth:`CondensedGraph.copy`
    row_copies = 0


class CondensedGraph:
    """Condensed representation of an extracted graph (possibly duplicated).

    The row mutators (``add_real_node``, ``add_virtual_node``,
    ``bulk_add_real_nodes``, ``load_edges``, ``remove_virtual_node``,
    ``restore_virtual_node``, ``remove_real_node``, ``add_edge``,
    ``remove_edge``) are the only writers of ``succ`` / ``pred`` rows; each
    copies a row it may share with a copy before writing it (see
    :meth:`copy`).  Code outside this class reads rows and never writes
    them.  Copying a graph while another thread writes to it is
    unsupported.
    """

    def __init__(self) -> None:
        #: structural version; bumped by every mutation so Graph wrappers can
        #: invalidate their cached CSR snapshots (repro.graph.kernel)
        self.version = 0
        # external id <-> internal non-negative index for real nodes
        self._internal_of: dict[Hashable, int] = {}
        self._external_of: dict[int, Hashable] = {}
        self._next_real = 0
        self._next_virtual = -1

        #: virtual node id -> optional (attribute, value) label
        self.virtual_labels: dict[int, tuple[str, Any] | None] = {}
        #: real node internal id -> property dict
        self.node_properties: dict[int, dict[str, Any]] = {}
        #: (source, target) internal real-node pair -> edge property dict
        #: (used by aggregate extraction queries, e.g. co-authorship counts)
        self.edge_annotations: dict[tuple[int, int], dict[str, Any]] = {}

        #: adjacency: out-edges of each node's source side
        self.succ: dict[int, list[int]] = {}
        #: adjacency: in-edges of each node's target side
        self.pred: dict[int, list[int]] = {}
        #: the ``succ`` / ``pred`` rows only this graph holds (copied or
        #: created since it last shared its rows); ``None`` while it never
        #: shared any
        self._own_succ: set[int] | None = None
        self._own_pred: set[int] | None = None

    # ------------------------------------------------------------------ #
    # node management
    # ------------------------------------------------------------------ #
    def add_real_node(self, external_id: Hashable, **properties: Any) -> int:
        """Add (or fetch) the real node with the given external ID."""
        if external_id in self._internal_of:
            node = self._internal_of[external_id]
            if properties:
                self.node_properties[node] = {**self.node_properties.get(node, {}), **properties}
            return node
        node = self._next_real
        self._next_real += 1
        self.version += 1
        self._internal_of[external_id] = node
        self._external_of[node] = external_id
        self.succ[node] = []
        self.pred[node] = []
        if self._own_succ is not None:
            self._own_succ.add(node)
            self._own_pred.add(node)
        if properties:
            self.node_properties[node] = dict(properties)
        return node

    def add_virtual_node(self, label: tuple[str, Any] | None = None) -> int:
        """Add a fresh virtual node; returns its (negative) internal ID."""
        node = self._next_virtual
        self._next_virtual -= 1
        self.version += 1
        self.virtual_labels[node] = label
        self.succ[node] = []
        self.pred[node] = []
        if self._own_succ is not None:
            self._own_succ.add(node)
            self._own_pred.add(node)
        return node

    def bulk_add_real_nodes(
        self, rows: Iterable[Sequence[Any]], property_names: Sequence[str] = ()
    ) -> int:
        """:meth:`add_real_node` for every row of a Nodes query: ``row[0]`` is
        the external ID, the rest are the values of ``property_names``.
        Returns the number of nodes actually created."""
        internal_of, external_of = self._internal_of, self._external_of
        succ, pred, node_properties = self.succ, self.pred, self.node_properties
        own_succ, own_pred = self._own_succ, self._own_pred
        created = 0
        for row in rows:
            external_id = row[0]
            node = internal_of.get(external_id)
            if node is None:
                node = self._next_real
                self._next_real += 1
                internal_of[external_id] = node
                external_of[node] = external_id
                succ[node] = []
                pred[node] = []
                if own_succ is not None:
                    own_succ.add(node)
                    own_pred.add(node)
                created += 1
            if property_names:
                values = dict(zip(property_names, row[1:]))
                properties = node_properties.get(node)
                node_properties[node] = values if properties is None else {**properties, **values}
        if created:
            self.version += 1
        return created

    def load_edges(
        self,
        rows: Iterable[Sequence[Any]],
        swapped: bool = False,
        left: tuple[str, dict[Hashable, int]] | None = None,
        right: tuple[str, dict[Hashable, int]] | None = None,
        skip_unknown: bool = True,
        property_names: Sequence[str] = (),
        unknown: set | None = None,
    ) -> tuple[int, int]:
        """Wire the rows of one segment / full / aggregate query into the graph.

        The extractor's one loader calls this for every engine, once per
        segment (or once for a full or aggregate rule).  One pass: every
        row's two endpoint values (``row[0], row[1]``, or the other way round
        when ``swapped``) are dictionary-encoded and the edge is appended to
        both adjacency lists, in arrival order.  A side given as ``None`` is
        a real endpoint, encoded by the graph's own external → internal map;
        a side given as ``(attribute, nodes)`` is a chain boundary whose
        virtual nodes are created on first sight of a join value (``None``
        included — a NULL joins NULL here, like any other key) and
        remembered in ``nodes``, which the caller shares between the two
        segments that meet at the boundary.

        The left endpoint is resolved first; an unknown real endpoint drops
        the row and counts it (``skip_unknown``) or becomes a new real node;
        a virtual left endpoint exists before the right one is looked at;
        and direct real→real edges — the only ones another rule can have
        produced already — are added once.  ``property_names`` label
        ``row[2:]`` as annotations of those direct edges.  ``unknown``, when
        given, collects the endpoint value each skipped row was dropped for.

        Returns ``(edges added, rows skipped)``.
        """
        succ, pred = self.succ, self.pred
        first, second = (1, 0) if swapped else (0, 1)
        left_of = self._internal_of if left is None else left[1]
        right_of = self._internal_of if right is None else right[1]
        direct = left is None and right is None
        targets_of: dict[int, set[int]] = {}
        annotations = self.edge_annotations
        own_succ, own_pred = self._own_succ, self._own_pred

        def unseen(value: Hashable, side: tuple[str, dict[Hashable, int]] | None) -> int | None:
            if side is not None:
                node = side[1][value] = self.add_virtual_node((side[0], value))
                return node
            return None if skip_unknown else self.add_real_node(value)

        added = skipped = copies = 0
        for row in rows:
            value = row[first]
            source = left_of.get(value)
            if source is None:
                source = unseen(value, left)
                if source is None:
                    skipped += 1
                    if unknown is not None:
                        unknown.add(value)
                    continue
            value = row[second]
            target = right_of.get(value)
            if target is None:
                target = unseen(value, right)
                if target is None:
                    skipped += 1
                    if unknown is not None:
                        unknown.add(value)
                    continue
            if direct:
                if property_names:
                    pair = (source, target)
                    values = dict(zip(property_names, row[2:]))
                    known = annotations.get(pair)
                    annotations[pair] = values if known is None else {**known, **values}
                targets = targets_of.get(source)
                if targets is None:
                    targets = targets_of[source] = set(succ[source])
                if target in targets:
                    continue
                targets.add(target)
            if own_succ is not None:
                if source not in own_succ:
                    succ[source] = list(succ[source])
                    own_succ.add(source)
                    copies += 1
                if target not in own_pred:
                    pred[target] = list(pred[target])
                    own_pred.add(target)
                    copies += 1
            succ[source].append(target)
            pred[target].append(source)
            added += 1
        CondensedCounters.row_copies += copies
        if added:
            self.version += 1
        return added, skipped

    def remove_virtual_node(self, virtual: int) -> None:
        """Remove a virtual node and all its incident edges."""
        if not self.is_virtual(virtual):
            raise RepresentationError(f"{virtual} is not a virtual node")
        self.version += 1
        succ, pred, own_succ, own_pred = self.succ, self.pred, self._own_succ, self._own_pred
        for target in list(succ.get(virtual, [])):
            if own_pred is not None and target not in own_pred:
                pred[target] = list(pred[target])
                own_pred.add(target)
                CondensedCounters.row_copies += 1
            pred[target].remove(virtual)
        for source in list(pred.get(virtual, [])):
            if own_succ is not None and source not in own_succ:
                succ[source] = list(succ[source])
                own_succ.add(source)
                CondensedCounters.row_copies += 1
            succ[source].remove(virtual)
        succ.pop(virtual, None)
        pred.pop(virtual, None)
        self.virtual_labels.pop(virtual, None)

    def restore_virtual_node(
        self,
        virtual: int,
        label: tuple[str, Any] | None,
        in_nodes: Iterable[int],
        out_nodes: Iterable[int],
    ) -> None:
        """Bring back virtual node ``virtual``, removed earlier, under its old
        ID and label, with an edge from each of ``in_nodes`` and to each of
        ``out_nodes`` (all present)."""
        if virtual in self.succ or not self.is_virtual(virtual):
            raise RepresentationError(f"{virtual} is not a removed virtual node")
        self.version += 1
        self.virtual_labels[virtual] = label
        self.succ[virtual] = []
        self.pred[virtual] = []
        if self._own_succ is not None:
            self._own_succ.add(virtual)
            self._own_pred.add(virtual)
        for source in in_nodes:
            self.add_edge(source, virtual)
        for target in out_nodes:
            self.add_edge(virtual, target)

    def remove_real_node(self, node: int) -> None:
        """Remove a real node, all edges incident to either of its copies and
        the annotations of its direct edges."""
        if self.is_virtual(node) or node not in self._external_of:
            raise RepresentationError(f"{node} is not a real node of this graph")
        self.version += 1
        succ, pred, own_succ, own_pred = self.succ, self.pred, self._own_succ, self._own_pred
        annotations = self.edge_annotations
        for target in list(succ.get(node, [])):
            if annotations and target >= 0:
                annotations.pop((node, target), None)
            if own_pred is not None and target not in own_pred:
                pred[target] = list(pred[target])
                own_pred.add(target)
                CondensedCounters.row_copies += 1
            pred[target].remove(node)
        for source in list(pred.get(node, [])):
            if annotations and source >= 0:
                annotations.pop((source, node), None)
            if own_succ is not None and source not in own_succ:
                succ[source] = list(succ[source])
                own_succ.add(source)
                CondensedCounters.row_copies += 1
            succ[source].remove(node)
        external = self._external_of.pop(node)
        self._internal_of.pop(external, None)
        succ.pop(node, None)
        pred.pop(node, None)
        self.node_properties.pop(node, None)

    # ------------------------------------------------------------------ #
    # identity helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def is_virtual(node: int) -> bool:
        return node < 0

    @staticmethod
    def is_real(node: int) -> bool:
        return node >= 0

    def has_external(self, external_id: Hashable) -> bool:
        return external_id in self._internal_of

    def internal(self, external_id: Hashable) -> int:
        try:
            return self._internal_of[external_id]
        except KeyError:
            raise RepresentationError(f"unknown real node {external_id!r}") from None

    def external(self, node: int) -> Hashable:
        try:
            return self._external_of[node]
        except KeyError:
            raise RepresentationError(f"unknown internal real node {node}") from None

    # ------------------------------------------------------------------ #
    # edge management
    # ------------------------------------------------------------------ #
    def add_edge(self, source: int, target: int) -> None:
        """Add a condensed edge ``source -> target``."""
        succ, pred = self.succ, self.pred
        try:
            out, into = succ[source], pred[target]
        except KeyError:
            raise RepresentationError(
                f"cannot add edge {source}->{target}: unknown endpoint"
            ) from None
        own = self._own_succ
        if own is not None:
            if source not in own:
                out = succ[source] = list(out)
                own.add(source)
                CondensedCounters.row_copies += 1
            own = self._own_pred
            if target not in own:
                into = pred[target] = list(into)
                own.add(target)
                CondensedCounters.row_copies += 1
        out.append(target)
        into.append(source)
        self.version += 1

    def remove_edge(self, source: int, target: int) -> None:
        """Remove one condensed edge ``source -> target``.  A direct edge's
        annotation goes with the last path from ``source`` to ``target``."""
        succ, pred = self.succ, self.pred
        try:
            out, into = succ[source], pred[target]
            own = self._own_succ
            if own is not None:
                if source not in own:
                    out = succ[source] = list(out)
                    own.add(source)
                    CondensedCounters.row_copies += 1
                own = self._own_pred
                if target not in own:
                    into = pred[target] = list(into)
                    own.add(target)
                    CondensedCounters.row_copies += 1
            out.remove(target)
            into.remove(source)
            self.version += 1
        except (KeyError, ValueError):
            raise RepresentationError(
                f"edge {source}->{target} is not in the condensed graph"
            ) from None
        annotations = self.edge_annotations
        if (
            annotations
            and (source, target) in annotations
            and target not in self.reachable_real_targets(source)
        ):
            del annotations[source, target]

    def has_edge(self, source: int, target: int) -> bool:
        return target in self.succ.get(source, ())

    def out(self, node: int) -> list[int]:
        """Out-adjacency of ``node`` (source side for real nodes)."""
        return self.succ.get(node, [])

    def inn(self, node: int) -> list[int]:
        """In-adjacency of ``node`` (target side for real nodes)."""
        return self.pred.get(node, [])

    # ------------------------------------------------------------------ #
    # iteration / counts
    # ------------------------------------------------------------------ #
    def real_nodes(self) -> Iterator[int]:
        return iter(self._external_of)

    def virtual_nodes(self) -> Iterator[int]:
        return iter(self.virtual_labels)

    def external_ids(self) -> Iterator[Hashable]:
        return iter(self._internal_of)

    @property
    def num_real_nodes(self) -> int:
        return len(self._external_of)

    @property
    def num_virtual_nodes(self) -> int:
        return len(self.virtual_labels)

    @property
    def num_nodes(self) -> int:
        return self.num_real_nodes + self.num_virtual_nodes

    @property
    def num_condensed_edges(self) -> int:
        """Number of physical edges stored in the condensed structure."""
        return sum(len(targets) for targets in self.succ.values())

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def is_single_layer(self) -> bool:
        """True if no virtual node points to another virtual node."""
        for virtual in self.virtual_nodes():
            if any(self.is_virtual(t) for t in self.succ[virtual]):
                return False
        return True

    def num_layers(self) -> int:
        """Number of virtual-node layers (longest virtual chain on any path).

        0 for a graph with no virtual nodes, 1 for single-layer graphs, etc.
        """
        memo: dict[int, int] = {}

        def depth(virtual: int) -> int:
            if virtual in memo:
                return memo[virtual]
            best = 1
            for target in self.succ[virtual]:
                if self.is_virtual(target):
                    best = max(best, 1 + depth(target))
            memo[virtual] = best
            return best

        layers = 0
        for virtual in self.virtual_nodes():
            layers = max(layers, depth(virtual))
        return layers

    def is_acyclic(self) -> bool:
        """The condensed graph must always be a DAG; verify it (for tests)."""
        state: dict[int, int] = {}  # 0 = visiting, 1 = done

        def visit(node: int) -> bool:
            state[node] = 0
            for target in self.succ.get(node, ()):  # real targets never expand further
                if self.is_real(target):
                    continue
                mark = state.get(target)
                if mark == 0:
                    return False
                if mark is None and not visit(target):
                    return False
            state[node] = 1
            return True

        for virtual in self.virtual_nodes():
            if virtual not in state and not visit(virtual):
                return False
        return True

    def virtual_in_real(self, virtual: int) -> list[int]:
        """I(V): real nodes with an edge into ``virtual``."""
        return [n for n in self.pred[virtual] if self.is_real(n)]

    def virtual_out_real(self, virtual: int) -> list[int]:
        """O(V): real nodes ``virtual`` points to."""
        return [n for n in self.succ[virtual] if self.is_real(n)]

    # ------------------------------------------------------------------ #
    # traversal (the heart of every condensed representation)
    # ------------------------------------------------------------------ #
    def reachable_real_targets(self, node: int) -> list[int]:
        """All real targets reachable from ``node``'s source copy through
        virtual nodes only, *with duplicates* (one occurrence per distinct
        path), in stack-pop order.

        The one plain walk of the virtual layer (Section 4.1): C-DUP
        de-duplicates it, DEDUP-1 is it, and only BITMAP's bitmap-filtered
        walk is written separately.  Direct real→real edges contribute one
        occurrence each.  Reads the ``succ`` rows directly — the snapshot
        build calls it once per vertex.
        """
        succ = self.succ
        result: list[int] = []
        push = result.append
        stack = list(succ.get(node, ()))
        extend = stack.extend
        while stack:
            current = stack.pop()
            if current >= 0:
                push(current)
            else:
                extend(succ[current])
        return result

    def neighbor_set(self, node: int) -> set[int]:
        """De-duplicated logical out-neighbors of real node ``node``."""
        return set(self.reachable_real_targets(node))

    def duplication_count(self, node: int) -> int:
        """Number of redundant paths out of ``node`` (0 means no duplication)."""
        walk = self.reachable_real_targets(node)
        return len(walk) - len(set(walk))

    def has_duplication(self) -> bool:
        """True if any real node can reach some target by more than one path."""
        return any(self.duplication_count(n) > 0 for n in self.real_nodes())

    def is_symmetric(self) -> bool:
        """True if the *expanded* graph is symmetric (u→v iff v→u)."""
        edges: set[tuple[int, int]] = set()
        for node in self.real_nodes():
            for target in self.neighbor_set(node):
                edges.add((node, target))
        return all((v, u) in edges for (u, v) in edges)

    def expanded_edge_count(self) -> int:
        """Number of edges of the expanded graph (computed by deduplicated
        traversal — the "free side effect" the paper mentions)."""
        return sum(len(self.neighbor_set(n)) for n in self.real_nodes())

    def expanded_edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate over the expanded graph's edges as external-ID pairs."""
        for node in self.real_nodes():
            source = self.external(node)
            for target in self.neighbor_set(node):
                yield source, self.external(target)

    # ------------------------------------------------------------------ #
    # copying
    # ------------------------------------------------------------------ #
    def copy(self) -> "CondensedGraph":
        """An independent graph that shares every row until one side writes it.

        Shallow: the clone's dicts point at this graph's ``succ`` / ``pred``
        row lists and property / annotation dicts.  Both graphs then start
        an empty set of owned rows, so the first write on either side to a
        row copies it (:attr:`CondensedCounters.row_copies` counts those)
        and a write through one never reaches the other; a graph kept
        beside its copy holds alive only the rows the copy no longer
        shares.  Property and annotation dicts are replaced on write, never
        updated.  Copying a graph while another thread writes to it is
        unsupported.
        """
        clone = CondensedGraph()
        clone._internal_of = dict(self._internal_of)
        clone._external_of = dict(self._external_of)
        clone._next_real = self._next_real
        clone._next_virtual = self._next_virtual
        clone.virtual_labels = dict(self.virtual_labels)
        clone.node_properties = dict(self.node_properties)
        clone.edge_annotations = dict(self.edge_annotations)
        clone.succ = dict(self.succ)
        clone.pred = dict(self.pred)
        self._own_succ, self._own_pred = set(), set()
        clone._own_succ, clone._own_pred = set(), set()
        return clone

    # ------------------------------------------------------------------ #
    # breadth-first helper used by multi-layer algorithms
    # ------------------------------------------------------------------ #
    def virtual_nodes_reachable(self, node: int) -> Iterator[int]:
        """All virtual nodes reachable from ``node``'s source copy (BFS)."""
        seen: set[int] = set()
        queue: deque[int] = deque(v for v in self.succ.get(node, ()) if self.is_virtual(v))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            yield current
            for target in self.succ[current]:
                if self.is_virtual(target) and target not in seen:
                    queue.append(target)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CondensedGraph(real={self.num_real_nodes}, virtual={self.num_virtual_nodes}, "
            f"edges={self.num_condensed_edges})"
        )


def condensed_from_edges(
    real_ids: Iterable[Hashable],
    virtual_memberships: Iterable[tuple[Any, Iterable[Hashable], Iterable[Hashable]]],
    direct_edges: Iterable[tuple[Hashable, Hashable]] = (),
) -> CondensedGraph:
    """Build a condensed graph from a compact description.

    Parameters
    ----------
    real_ids:
        The external IDs of all real nodes.
    virtual_memberships:
        Triples ``(label, in_ids, out_ids)``; a virtual node is created per
        triple with edges ``u -> V`` for every ``u`` in ``in_ids`` and
        ``V -> w`` for every ``w`` in ``out_ids``.
    direct_edges:
        Direct real→real edges.

    Primarily a convenience for tests and the synthetic generators.
    """
    graph = CondensedGraph()
    for rid in real_ids:
        graph.add_real_node(rid)
    for label, in_ids, out_ids in virtual_memberships:
        virtual = graph.add_virtual_node(("synthetic", label))
        for u in in_ids:
            graph.add_edge(graph.internal(u), virtual)
        for w in out_ids:
            graph.add_edge(virtual, graph.internal(w))
    for u, w in direct_edges:
        graph.add_edge(graph.internal(u), graph.internal(w))
    return graph
