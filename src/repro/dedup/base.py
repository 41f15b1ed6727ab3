"""Shared machinery for the deduplication algorithms.

All DEDUP-1 algorithms in Section 5.2 operate on a *single-layer* condensed
graph and repeatedly perform the same two primitive rewrites:

* remove an out-edge ``V -> w`` of a virtual node, adding compensating direct
  edges ``u -> w`` for every in-node ``u`` of ``V`` that would otherwise lose
  the logical edge;
* remove an in-edge ``u -> V``, adding compensating direct edges ``u -> w``
  for every out-node ``w`` of ``V`` that ``u`` would otherwise lose.

:class:`DedupState` wraps a condensed graph together with an incrementally
maintained *coverage map* ``cover[u][w]`` = number of distinct paths from
``u_s`` to ``w_t``, so the primitives can decide in O(1) whether a
compensating direct edge is required, and the algorithms can detect remaining
duplication cheaply.  The coverage map is proportional to the expanded edge
set, which is why (as the paper observes) the DEDUP-1 algorithms do not scale
to the Table-3-sized datasets — they are meant for the small/medium graphs of
Section 6.1.

Next to the coverage map the state keeps three families of bitmasks over
internal real IDs, built once and updated in place by every primitive
rewrite: each virtual node's real in- and out-neighbourhood, and for each
real target the sources that reach it by exactly one path.  Overlap tests
and compensation costs — the inner loops of every algorithm — are then one
big-int AND (and a popcount) each, with no per-probe rescans.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.exceptions import DeduplicationError
from repro.graph.condensed import CondensedGraph
from repro.utils.rand import SeededRandom

#: name -> ordering function over (state, node ids) used by Figure 12b
OrderingFn = Callable[["DedupState", list[int]], list[int]]


def ordering_random(state: "DedupState", nodes: list[int], seed: int = 0) -> list[int]:
    """RAND ordering from the paper (recommended default)."""
    rng = SeededRandom(seed)
    return rng.shuffle(list(nodes))


def ordering_by_degree(state: "DedupState", nodes: list[int]) -> list[int]:
    """Process high-degree nodes first."""
    return sorted(nodes, key=lambda n: -len(state.cg.out(n)))


def ordering_by_degree_asc(state: "DedupState", nodes: list[int]) -> list[int]:
    """Process low-degree nodes first."""
    return sorted(nodes, key=lambda n: len(state.cg.out(n)))


ORDERINGS: dict[str, OrderingFn] = {
    "random": ordering_random,
    "degree_desc": ordering_by_degree,
    "degree_asc": ordering_by_degree_asc,
}


def resolve_ordering(ordering: str | OrderingFn) -> OrderingFn:
    if callable(ordering):
        return ordering
    try:
        return ORDERINGS[ordering]
    except KeyError:
        raise DeduplicationError(
            f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}"
        ) from None


def bits(mask: int) -> set[int]:
    """Decode a bitmask into the set of set-bit positions."""
    result: set[int] = set()
    while mask:
        low = mask & -mask
        result.add(low.bit_length() - 1)
        mask ^= low
    return result


class DedupCounters:
    """Process-global instrumentation (read as deltas, like
    ``TraversalCounters``): the clock-free work pins of the DEDUP-1
    algorithms."""

    #: virtual-node pairs tested for a shared (source, target) pair
    pair_tests = 0
    #: compensation costs evaluated (one masked popcount each)
    cost_evaluations = 0


def real_mask(nodes: Iterable[int]) -> int:
    """The real nodes among ``nodes`` as a bitmask over internal real IDs."""
    mask = 0
    for node in nodes:
        if node >= 0:
            mask |= 1 << node
    return mask


class DedupState:
    """A condensed graph plus its per-source coverage counters and masks.

    Three dicts of *integer bitmasks over internal real IDs* (the trick the
    BITMAP representation uses for traversal) are built once and then kept
    up to date in place by the primitive rewrites, never rescanned:

    * ``in_masks[V]`` / ``out_masks[V]`` — I(V) / O(V) of every virtual node;
    * ``single_path[w]`` — the real ``u`` with ``cover[u][w] == 1``.

    Two virtual nodes duplicate a pair iff both their in- and their
    out-masks intersect, and removing ``V -> w`` adds one compensating
    direct edge per bit of ``in_masks[V] & single_path[w]``.  The
    primitives assume no parallel edge to or from a virtual node, which
    :meth:`normalize` guarantees.
    """

    def __init__(self, condensed: CondensedGraph, require_single_layer: bool = True) -> None:
        if require_single_layer and not condensed.is_single_layer():
            raise DeduplicationError(
                "this deduplication algorithm only supports single-layer "
                "condensed graphs; flatten the graph first "
                "(repro.dedup.flatten_to_single_layer) or use BITMAP-2"
            )
        self.cg = condensed
        #: cover[u][w] = number of condensed paths from u_s to w_t
        self.cover: dict[int, dict[int, int]] = {}
        #: real target w -> mask of the real u with cover[u][w] == 1
        self.single_path: dict[int, int] = dict.fromkeys(condensed.real_nodes(), 0)
        self._build_cover()
        #: virtual node -> I(V) / O(V) as a mask over internal real IDs
        self.in_masks: dict[int, int] = {}
        self.out_masks: dict[int, int] = {}
        for virtual in condensed.virtual_nodes():
            self.in_masks[virtual] = real_mask(condensed.pred[virtual])
            self.out_masks[virtual] = real_mask(condensed.succ[virtual])

    # ------------------------------------------------------------------ #
    # coverage map maintenance
    # ------------------------------------------------------------------ #
    def _build_cover(self) -> None:
        single_path = self.single_path
        for u in self.cg.real_nodes():
            counts: dict[int, int] = {}
            for target in self.cg.reachable_real_targets(u):
                counts[target] = counts.get(target, 0) + 1
            self.cover[u] = counts
            bit = 1 << u
            for target, count in counts.items():
                if count == 1:
                    single_path[target] |= bit

    def _inc(self, u: int, w: int, delta: int = 1) -> int:
        counts = self.cover.setdefault(u, {})
        old = counts.get(w, 0)
        new = old + delta
        if new > 0:
            counts[w] = new
        else:
            counts.pop(w, None)
            new = 0
        if (old == 1) != (new == 1):
            self.single_path[w] ^= 1 << u
        return new

    def count(self, u: int, w: int) -> int:
        return self.cover.get(u, {}).get(w, 0)

    # ------------------------------------------------------------------ #
    # virtual-node views
    # ------------------------------------------------------------------ #
    def in_real(self, virtual: int) -> list[int]:
        """I(V): real in-nodes of ``virtual``."""
        return self.cg.virtual_in_real(virtual)

    def out_real(self, virtual: int) -> list[int]:
        """O(V): real out-nodes of ``virtual``."""
        return self.cg.virtual_out_real(virtual)

    def out_overlap(self, first: int, second: int) -> set[int]:
        return bits(self.out_masks[first] & self.out_masks[second])

    def has_duplication_between(self, first: int, second: int) -> bool:
        """True if some pair (u, w) is covered through both virtual nodes."""
        DedupCounters.pair_tests += 1
        return bool(self.in_masks[first] & self.in_masks[second]) and bool(
            self.out_masks[first] & self.out_masks[second]
        )

    # ------------------------------------------------------------------ #
    # primitive rewrites (all equivalence-preserving)
    # ------------------------------------------------------------------ #
    def remove_virtual_out_edge(self, virtual: int, target: int) -> int:
        """Remove ``virtual -> target``; compensate in-nodes that relied on it.

        Returns the number of compensating direct edges added.
        """
        cg = self.cg
        if not cg.has_edge(virtual, target):
            raise DeduplicationError(f"edge {virtual}->{target} not present")
        compensations = 0
        for u in cg.pred[virtual]:
            if u < 0:
                continue
            if self.cover[u][target] == 1:
                # a direct edge takes over the last path: the count stays 1
                cg.add_edge(u, target)
                compensations += 1
            else:
                self._inc(u, target, -1)
        cg.remove_edge(virtual, target)
        self.out_masks[virtual] &= ~(1 << target)
        return compensations

    def remove_real_to_virtual_edge(self, source: int, virtual: int) -> int:
        """Remove ``source -> virtual``; compensate ``source`` for lost targets.

        Returns the number of compensating direct edges added.
        """
        cg = self.cg
        if not cg.has_edge(source, virtual):
            raise DeduplicationError(f"edge {source}->{virtual} not present")
        compensations = 0
        counts = self.cover[source]
        for target in cg.succ[virtual]:
            if target < 0:
                continue
            if counts[target] == 1:
                cg.add_edge(source, target)
                compensations += 1
            else:
                self._inc(source, target, -1)
        cg.remove_edge(source, virtual)
        self.in_masks[virtual] &= ~(1 << source)
        return compensations

    def remove_direct_edge(self, source: int, target: int) -> None:
        """Remove a redundant direct edge (only legal when another path exists)."""
        if self.count(source, target) <= 1:
            raise DeduplicationError(
                f"direct edge {source}->{target} is the only path; removing it "
                f"would change the graph"
            )
        self.cg.remove_edge(source, target)
        self._inc(source, target, -1)

    def compensation_cost(self, virtual: int, target: int) -> int:
        """Number of direct edges :meth:`remove_virtual_out_edge` would add."""
        DedupCounters.cost_evaluations += 1
        return (self.in_masks[virtual] & self.single_path[target]).bit_count()

    # ------------------------------------------------------------------ #
    # normalisation / cleanup passes shared by all algorithms
    # ------------------------------------------------------------------ #
    def normalize(self) -> None:
        """Remove parallel condensed edges and redundant direct edges.

        * duplicate entries in any adjacency list are pure duplication;
        * a direct real→real edge whose pair is also covered through a virtual
          node is redundant.

        Neither removal changes a neighbourhood *set*, so the masks built in
        ``__init__`` stay exact; from here on no virtual node has a parallel
        edge, which the primitives' single-bit updates rely on.
        """
        # parallel edges out of any node
        for node in list(self.cg.succ):
            targets = self.cg.out(node)
            seen: set[int] = set()
            for target in list(targets):
                if target in seen:
                    self.cg.remove_edge(node, target)
                    if self.cg.is_real(node) and self.cg.is_real(target):
                        self._inc(node, target, -1)
                    elif self.cg.is_virtual(node) and self.cg.is_real(target):
                        for u in self.in_real(node):
                            self._inc(u, target, -1)
                    # parallel real->virtual edges: decrement for all targets
                    elif self.cg.is_real(node) and self.cg.is_virtual(target):
                        for w in self.out_real(target):
                            self._inc(node, w, -1)
                else:
                    seen.add(target)
        # redundant direct edges
        for u in list(self.cg.real_nodes()):
            for target in [t for t in self.cg.out(u) if self.cg.is_real(t)]:
                if self.count(u, target) > 1:
                    self.remove_direct_edge(u, target)

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def is_fully_deduplicated(self) -> bool:
        return all(
            count <= 1 for counts in self.cover.values() for count in counts.values()
        )

    def remaining_duplicates(self) -> int:
        return sum(
            count - 1 for counts in self.cover.values() for count in counts.values() if count > 1
        )


def remove_parallel_direct_edges(condensed: CondensedGraph) -> int:
    """Remove duplicate occurrences of the same direct real→real edge.

    Extraction never produces them (its SQL uses DISTINCT) but hand-built
    condensed graphs may contain them; they are pure duplication.  Returns the
    number of parallel edges removed.
    """
    removed = 0
    for node in list(condensed.real_nodes()):
        seen: set[int] = set()
        for target in list(condensed.out(node)):
            if not condensed.is_real(target):
                continue
            if target in seen:
                condensed.remove_edge(node, target)
                removed += 1
            else:
                seen.add(target)
    return removed


def admit_with_candidates(
    condensed: CondensedGraph, virtuals: Iterable[int]
) -> Iterator[tuple[int, list[int]]]:
    """Admit ``virtuals`` one at a time, the Virtual Nodes First loop.

    Yields each virtual node with the already admitted ones that share a
    real in-node with it — the only ones that can duplicate a pair with it —
    in admission order; the node counts as admitted once the caller asks for
    the next.  An index (real in-node -> admission ranks) finds them, so a
    step costs the degrees it touches rather than a scan over every admitted
    node.  Exact only while no edge *into* a virtual node is removed.
    """
    admitted: list[int] = []
    feeds: dict[int, list[int]] = {}  # real in-node -> ranks of admitted nodes it feeds
    for virtual in virtuals:
        in_nodes = [u for u in condensed.pred[virtual] if u >= 0]
        ranks = sorted({rank for u in in_nodes for rank in feeds.get(u, ())})
        yield virtual, [admitted[rank] for rank in ranks]
        for u in in_nodes:
            feeds.setdefault(u, []).append(len(admitted))
        admitted.append(virtual)


def single_layer_virtual_nodes(condensed: CondensedGraph) -> list[int]:
    """All virtual nodes of a single-layer condensed graph (stable order)."""
    return sorted(condensed.virtual_nodes(), reverse=True)


def flatten_to_single_layer(condensed: CondensedGraph) -> CondensedGraph:
    """Convert a multi-layer condensed graph into an equivalent single-layer one.

    Every *penultimate* virtual node ``V`` (one with at least one real
    out-neighbor) becomes a virtual node of the flattened graph with
    ``I'(V) = {real u : V reachable from u_s}`` and ``O'(V)`` equal to ``V``'s
    real out-neighbors; direct real→real edges are copied verbatim.  This is
    the "expand all but one layer" strategy Section 5.2.2 suggests before
    running a single-layer deduplication algorithm.
    """
    flat = CondensedGraph()
    for node in condensed.real_nodes():
        flat.add_real_node(condensed.external(node), **condensed.node_properties.get(node, {}))

    penultimate = [
        v
        for v in condensed.virtual_nodes()
        if any(condensed.is_real(t) for t in condensed.out(v))
    ]
    reachers: dict[int, list[int]] = {v: [] for v in penultimate}
    for u in condensed.real_nodes():
        for virtual in condensed.virtual_nodes_reachable(u):
            if virtual in reachers:
                reachers[virtual].append(u)

    for virtual in penultimate:
        label = condensed.virtual_labels.get(virtual)
        new_virtual = flat.add_virtual_node(label)
        for u in reachers[virtual]:
            flat.add_edge(flat.internal(condensed.external(u)), new_virtual)
        for target in condensed.out(virtual):
            if condensed.is_real(target):
                flat.add_edge(new_virtual, flat.internal(condensed.external(target)))

    for u in condensed.real_nodes():
        for target in condensed.out(u):
            if condensed.is_real(target):
                flat.add_edge(
                    flat.internal(condensed.external(u)),
                    flat.internal(condensed.external(target)),
                )
    return flat


def apply_ordering(
    state: DedupState, nodes: Iterable[int], ordering: str | OrderingFn, seed: int = 0
) -> list[int]:
    """Order ``nodes`` according to an ordering name or custom function."""
    fn = resolve_ordering(ordering)
    nodes = list(nodes)
    if fn is ordering_random:
        return ordering_random(state, nodes, seed=seed)
    return fn(state, nodes)
