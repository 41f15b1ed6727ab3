"""BITMAP — deduplication via per-virtual-node bitmaps.

The condensed structure is kept exactly as extracted (same edges as C-DUP),
but virtual nodes carry *bitmaps indexed by source real node*: when a
traversal that started at ``u_s`` reaches virtual node ``V`` and ``V`` has a
bitmap for ``u``, only the out-edges whose bit is set are followed.  The
bitmaps are initialised by the preprocessing algorithms BITMAP-1 and BITMAP-2
(:mod:`repro.dedup.bitmap1`, :mod:`repro.dedup.bitmap2`) so that every real
neighbor of ``u`` is produced exactly once — removing the need for the
per-call hash set C-DUP pays (Section 4.3, "BITMAP").

The filtered walk is the only copy of the virtual-layer walk besides
:meth:`~repro.graph.condensed.CondensedGraph.reachable_real_targets`.

Invariant the mutators keep: a bitmap is *positional* — bit ``i`` of
``V``'s bitmap for ``u`` steers the ``i``-th entry of ``condensed.out(V)``
— and it exists only for a live source.  Logical edge addition and deletion
touch only real nodes' rows (direct edges, the source's edge into ``V``),
so no position moves; :meth:`BitmapGraph.delete_vertex` removes entries
from virtual rows, so it drops their bits from every bitmap of ``V``,
shifts the higher bits down, and drops the deleted vertex's own bitmaps.
"""

from __future__ import annotations

from repro.graph.api import VertexId
from repro.graph.condensed import CondensedGraph
from repro.graph.condensed_base import CondensedBackedGraph

#: shared empty per-source bitmap dict (avoids an allocation per virtual node
#: in the snapshot fast path)
_EMPTY: dict[int, int] = {}


class BitmapGraph(CondensedBackedGraph):
    """Graph API over a condensed graph augmented with traversal bitmaps."""

    representation_name = "BITMAP"

    def __init__(self, condensed: CondensedGraph) -> None:
        super().__init__(condensed)
        #: virtual node -> {source real node -> bitmask over positions of
        #: ``condensed.out(virtual)`` (bit i set = follow the i-th out-edge)}
        self._bitmaps: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # bitmap management (used by the preprocessing algorithms)
    # ------------------------------------------------------------------ #
    def set_bitmap(self, virtual: int, source: int, bitmask: int) -> None:
        """Attach/overwrite the bitmap of ``virtual`` for ``source``."""
        self._bitmaps.setdefault(virtual, {})[source] = bitmask
        self._bump_version()  # bitmaps steer traversal, so snapshots depend on them

    def get_bitmap(self, virtual: int, source: int) -> int | None:
        return self._bitmaps.get(virtual, {}).get(source)

    def has_bitmap(self, virtual: int, source: int) -> bool:
        return source in self._bitmaps.get(virtual, {})

    def remove_bitmap(self, virtual: int, source: int) -> None:
        self._bitmaps.get(virtual, {}).pop(source, None)
        self._bump_version()

    def iter_bitmaps(self):
        """Yield ``(virtual, source, bitmask)`` for every stored bitmap."""
        for virtual, per_source in self._bitmaps.items():
            for source, bitmask in per_source.items():
                yield virtual, source, bitmask

    def bitmap_count(self) -> int:
        """Total number of bitmaps stored (Figure 10 / memory accounting)."""
        return sum(len(per_source) for per_source in self._bitmaps.values())

    def bitmap_bit_count(self) -> int:
        """Total number of bits stored across all bitmaps."""
        total = 0
        for virtual, per_source in self._bitmaps.items():
            bits = len(self._cg.out(virtual))
            total += bits * len(per_source)
        return total

    def bitmap_sizes(self) -> list[tuple[int, int]]:
        """``(num_bitmaps, bits_per_bitmap)`` per virtual node, for memory estimates."""
        return [
            (len(per_source), len(self._cg.out(virtual)))
            for virtual, per_source in self._bitmaps.items()
            if per_source
        ]

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def _internal_neighbors_list(self, node: int) -> list[int]:
        # the plain walk, filtered by ``node``'s bitmap at each virtual node
        succ = self._cg.succ
        bitmaps = self._bitmaps
        visited_virtual: set[int] = set()
        result: list[int] = []
        push = result.append
        stack = list(succ[node])
        while stack:
            current = stack.pop()
            if current >= 0:
                push(current)
                continue
            if current in visited_virtual:
                continue
            visited_virtual.add(current)
            targets = succ[current]
            bitmap = bitmaps.get(current, _EMPTY).get(node)
            if bitmap is None:
                stack.extend(targets)
            else:
                for position, target in enumerate(targets):
                    if bitmap >> position & 1:
                        stack.append(target)
        return result

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def delete_vertex(self, vertex: VertexId) -> None:
        """Remove ``vertex``; the bitmaps it was a source of go with it, and
        every bitmap of a virtual node that pointed to it loses the bits of
        the removed out-edges, the higher bits moving down to match."""
        if not self._cg.has_external(vertex):
            raise self._missing_vertex(vertex)
        node = self._cg.internal(vertex)
        for virtual in set(self._cg.inn(node)):
            per_source = self._bitmaps.get(virtual)
            if not per_source:
                continue
            positions = [i for i, t in enumerate(self._cg.out(virtual)) if t == node]
            for source, bitmask in per_source.items():
                for position in reversed(positions):
                    low = bitmask & ((1 << position) - 1)
                    bitmask = low | (bitmask >> (position + 1) << position)
                per_source[source] = bitmask
        for per_source in self._bitmaps.values():
            per_source.pop(node, None)
        super().delete_vertex(vertex)

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in self.get_vertices())
