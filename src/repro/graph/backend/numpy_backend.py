"""NumPy-vectorised kernel backend over zero-copy CSR snapshot views.

The snapshot's ``offsets``/``targets`` are contiguous 64-bit buffers —
``array('q')`` for in-memory builds, ``"q"``-cast memoryviews over a
read-only mmap for loaded snapshot files — and both expose the buffer
protocol, so ``np.frombuffer`` wraps them as ``np.int64`` views **without
copying**.  A pool worker that mmaps the run's snapshot file
therefore runs these kernels directly over the shared page-cache copy of the
arrays.

Kernel strategies (see ``tests/test_backend_parity.py`` for the contract):

* **PageRank / gather** — scatter-gather with ``np.bincount`` weights over
  the flat edge array (accumulation in global edge order, the same order the
  reference kernel adds shares in) and ``np.add.reduceat`` segment sums.
* **Single-source BFS** — one frontier-adaptive level step
  (:func:`_bfs_levels`): a frontier of at most :data:`SCALAR_FRONTIER`
  vertices is expanded by a scalar loop over the snapshot's own buffers, a
  wider one by a flat gather whose ``np.unique(..., return_index=True)``
  keeps the *first-occurrence discovery order* — so visit orders and parent
  pointers equal the reference FIFO kernels exactly, and a high-diameter
  graph does not pay a fixed run of array calls per level.
* **Components** — hooking + pointer jumping over the flat directed edge
  list: ``O(log n)`` rounds of array work whatever the diameter, roots are
  component minima, so ranking them reproduces the union-find labeling
  (0-based, ordered by first vertex).  No symmetrised view is built.
* **Per-source sweeps** (closeness, betweenness, diameter, the plan
  compiler's fused sweep) — one block kernel, :meth:`NumpyBackend.sweep`:
  up to 64 sources advance together through a bit-parallel multi-source BFS
  (one ``uint64`` lane each, every frontier edge touched once per level for
  the whole block), and each Brandes dependency vector is accumulated
  edge-centrically from its distance row with per-level ``bincount``s over
  edges kept in CSR order — so a source's floats are a function of the
  source alone, not of the block it rides in.
* **Triangles / similarity / k-core** — a symmetrised, deduplicated,
  *sorted* adjacency CSR (built once per snapshot and cached on it) makes
  neighbor intersection a ``searchsorted`` probe and peeling a masked
  degree-decrement loop.

Integer kernels are exact; float kernels re-associate sums and may differ
from the reference in low-order bits (≤ 1e-9 L-infinity, documented in
:mod:`repro.graph.backend`).  Label propagation is inherited from the
reference backend: its sequential in-round updates are order-dependent by
definition and do not vectorise.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.graph.backend.python_backend import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph


def _views(csr: "CSRGraph") -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``np.int64`` views of ``offsets``/``targets`` (cached)."""
    cache = csr._backend_cache
    views = cache.get("np_views")
    if views is None:
        offsets = np.frombuffer(csr.offsets, dtype=np.int64)
        targets = np.frombuffer(csr.targets, dtype=np.int64)
        views = cache["np_views"] = (offsets, targets)
    return views


def _out_degrees(csr: "CSRGraph") -> np.ndarray:
    cache = csr._backend_cache
    degrees = cache.get("np_degrees")
    if degrees is None:
        offsets, _ = _views(csr)
        degrees = cache["np_degrees"] = np.diff(offsets)
    return degrees


def _edge_sources(csr: "CSRGraph") -> np.ndarray:
    """The source vertex of every ``targets`` entry (cached): with it the
    snapshot reads as one flat ``(source, target)`` edge list in CSR order."""
    cache = csr._backend_cache
    sources = cache.get("np_edge_sources")
    if sources is None:
        sources = cache["np_edge_sources"] = np.repeat(
            np.arange(csr.n, dtype=np.int64), _out_degrees(csr)
        )
    return sources


def _undirected_csr(csr: "CSRGraph") -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised adjacency as a sorted, deduplicated CSR (cached).

    Same logical view as :meth:`CSRGraph.undirected_sets` — ``u ~ v`` iff
    ``u→v`` or ``v→u``, self-loops dropped — with each row's targets sorted
    ascending so membership tests are ``searchsorted`` probes.

    The arrays are shared with the other backends through the snapshot's
    backend-neutral ``"und_csr"`` cache entry: if any consumer (python
    kernels included) already derived the symmetrised form, it is wrapped
    zero-copy here instead of being rebuilt, and a fresh vectorised build is
    published back under the neutral key for them.
    """
    cache = csr._backend_cache
    und = cache.get("np_undirected")
    if und is None:
        n = csr.n
        if "und_csr" in cache or csr._undirected is not None:
            neutral_offsets, neutral_targets = csr.undirected_csr()
            und = cache["np_undirected"] = (
                np.frombuffer(neutral_offsets, dtype=np.int64),
                np.frombuffer(neutral_targets, dtype=np.int64),
            )
            return und
        offsets, targets = _views(csr)
        sources = np.repeat(np.arange(n, dtype=np.int64), _out_degrees(csr))
        keep = sources != targets
        u = np.concatenate([sources[keep], targets[keep]])
        v = np.concatenate([targets[keep], sources[keep]])
        if u.size:
            codes = np.unique(u * np.int64(n) + v)
            uu, vv = np.divmod(codes, np.int64(n))
        else:
            uu = vv = np.empty(0, dtype=np.int64)
        und_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uu, minlength=n), out=und_offsets[1:])
        und = cache["np_undirected"] = (und_offsets, vv)
        # publish the backend-neutral form so python kernels (undirected_sets)
        # and future backends reuse this derivation instead of re-symmetrising
        neutral_offsets = array("q")
        neutral_offsets.frombytes(np.ascontiguousarray(und_offsets).tobytes())
        neutral_targets = array("q")
        neutral_targets.frombytes(np.ascontiguousarray(vv).tobytes())
        cache["und_csr"] = (neutral_offsets, neutral_targets)
    return und


def _gather_index(offsets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Flat ``targets`` positions of all out-edges of ``frontier``,
    concatenated in frontier order with per-vertex target order preserved."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)


def _gather_targets(
    offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Flat targets of all out-edges of ``frontier`` (see :func:`_gather_index`)."""
    return targets[_gather_index(offsets, frontier)]


def _gather(
    offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`_gather_targets`, also returning the per-edge sources."""
    counts = offsets[frontier + 1] - offsets[frontier]
    return (
        _gather_targets(offsets, targets, frontier),
        np.repeat(frontier, counts),
    )


def _flatten(rows: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ``row -> collection of ints`` mapping as ``(keys, counts, values)``
    arrays: keys and collection sizes in dict order, the values concatenated
    in that order."""
    return (
        np.fromiter(rows, dtype=np.int64, count=len(rows)),
        np.fromiter(map(len, rows.values()), dtype=np.int64, count=len(rows)),
        np.fromiter(chain.from_iterable(rows.values()), dtype=np.int64),
    )


def _sorted_row(offsets: np.ndarray, targets: np.ndarray, index: int) -> np.ndarray:
    return targets[offsets[index] : offsets[index + 1]]


class TraversalCounters:
    """Process-global instrumentation (read as deltas, like
    ``CompilerCounters``): the clock-free pins of the traversal kernels."""

    #: hook-and-jump rounds run by :meth:`NumpyBackend.connected_components`
    hook_rounds = 0


#: a BFS frontier of at most this many vertices is expanded by a scalar loop,
#: a wider one by one flat gather.  A fixed constant, not an option: 16 / 64 /
#: 256 time the same on both ring and small-world inputs.
SCALAR_FRONTIER = 64


def _bfs_levels(
    csr: "CSRGraph",
    source: int,
    state: array,
    *,
    parents: bool = False,
    max_depth: int | None = None,
):
    """Breadth-first levels from ``source``: yields each new frontier in FIFO
    discovery order (a list, or an index array when it is wider than the
    scalar step and came off the wide one), having marked every vertex in it
    in ``state`` — with its depth, or with the vertex whose edge discovered
    it first when ``parents``.  ``state`` holds the undiscovered mark for
    every vertex but the source: ``-1`` under depths, ``-2`` under parents.

    The level step adapts to the frontier.  A narrow frontier (a path, a
    ring: thousands of levels of a handful of vertices) is expanded by a
    scalar loop over the snapshot's own ``offsets``/``targets`` buffers, so a
    level costs its edges and not a fixed run of array calls; a wide one goes
    through :func:`_gather_targets`, first occurrences kept in edge order.
    ``state`` is one ``array('q')`` both steps write: the scalar step by
    index, the wide step through a zero-copy view.
    """
    offsets, targets = csr.offsets, csr.targets
    offsets_v, targets_v = _views(csr)
    state_v = np.frombuffer(state, dtype=np.int64)
    unseen = -2 if parents else -1
    frontier = [source]
    depth = 0
    while len(frontier) and depth != max_depth:
        depth += 1
        if len(frontier) <= SCALAR_FRONTIER:
            fresh = []
            for u in frontier:
                mark = u if parents else depth
                for v in targets[offsets[u] : offsets[u + 1]]:
                    if state[v] == unseen:
                        state[v] = mark
                        fresh.append(v)
            frontier = fresh
        else:
            frontier = np.asarray(frontier, dtype=np.int64)
            candidates = _gather_targets(offsets_v, targets_v, frontier)
            undiscovered = state_v[candidates] == unseen
            fresh = candidates[undiscovered]
            _, first = np.unique(fresh, return_index=True)
            first.sort()  # first-occurrence discovery order
            if parents:
                origins = np.repeat(frontier, offsets_v[frontier + 1] - offsets_v[frontier])
                marks = origins[undiscovered][first]  # first discovering edge
            else:
                marks = depth
            frontier = fresh[first]
            state_v[frontier] = marks
            if frontier.size <= SCALAR_FRONTIER:
                frontier = frontier.tolist()  # the scalar step's form
        yield frontier


class NumpyBackend(KernelBackend):
    """Vectorised kernels over (possibly mmap-backed) snapshot arrays."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # whole-graph scans
    # ------------------------------------------------------------------ #
    def degrees(self, csr: "CSRGraph") -> list[int]:
        if csr._degrees is None:
            csr._degrees = _out_degrees(csr).tolist()
        return csr._degrees

    def segment_sums(
        self, csr: "CSRGraph", values: Sequence[float], lo: int = 0, hi: int | None = None
    ) -> list[float]:
        if hi is None:
            hi = csr.n
        if hi <= lo:
            return []
        offsets, targets = _views(csr)
        bounds = offsets[lo : hi + 1]
        base = int(bounds[0])
        gathered = np.asarray(values, dtype=np.float64)[targets[base : int(bounds[-1])]]
        sums = np.zeros(hi - lo, dtype=np.float64)
        if gathered.size:
            # reduceat over the non-empty segment starts only: empty segments
            # hold no elements, so consecutive non-empty starts delimit
            # exactly one segment's elements each
            nonempty = bounds[:-1] < bounds[1:]
            sums[nonempty] = np.add.reduceat(gathered, (bounds[:-1] - base)[nonempty])
        return sums.tolist()

    # ------------------------------------------------------------------ #
    # traversals (one frontier-adaptive level step == reference FIFO)
    # ------------------------------------------------------------------ #
    def bfs_distances(
        self, csr: "CSRGraph", source: int, max_depth: int | None = None
    ) -> list[int]:
        state = array("q", [-1]) * csr.n
        state[source] = 0
        for _ in _bfs_levels(csr, source, state, max_depth=max_depth):
            pass
        return state.tolist()

    def bfs_order(self, csr: "CSRGraph", source: int) -> list[int]:
        state = array("q", [-1]) * csr.n
        state[source] = 0
        order: list[int] = [source]
        for frontier in _bfs_levels(csr, source, state):
            order.extend(frontier if type(frontier) is list else frontier.tolist())
        return order

    def bfs_parents(self, csr: "CSRGraph", source: int) -> list[int]:
        state = array("q", [-2]) * csr.n  # -2 = undiscovered
        state[source] = -1
        for _ in _bfs_levels(csr, source, state, parents=True):
            pass
        return state.tolist()

    # ------------------------------------------------------------------ #
    # snapshot maintenance
    # ------------------------------------------------------------------ #
    def apply_overlay(self, csr: "CSRGraph", overlay, *, source=None) -> "CSRGraph":
        """Vectorised delta-overlay merge, element-wise identical to the
        reference :func:`repro.graph.delta.merge_overlay`.

        One pass each way, no per-row loop: the touched pairs become flat
        ``row * n + target`` keys, the touched rows' base edges are gathered
        and tested against them with one ``np.isin``, the survivors move to
        their shifted destinations in one scatter, and every row's sorted net
        additions drop at its end through one computed destination index —
        ``O(n + m)`` array work plus ``O(|delta|)`` to flatten the plan.
        """
        from repro.graph.kernel import CSRGraph

        index, new_vertices, strip, additions = overlay.plan(csr)
        offsets_v, targets_v = _views(csr)
        base_n = csr.n
        n = base_n + len(new_vertices)

        keep = np.ones(targets_v.size, dtype=bool)
        touched, strip_counts, dropped = _flatten(strip)
        if dropped.size:
            rows = touched[touched < base_n]
            at = _gather_index(offsets_v, rows)
            edge_keys = np.repeat(rows, offsets_v[rows + 1] - offsets_v[rows]) * n + targets_v[at]
            strip_keys = np.repeat(touched, strip_counts) * n + dropped
            keep[at] = ~np.isin(edge_keys, strip_keys)

        keep_csum = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(keep, dtype=np.int64))
        )
        kept_per_row = np.zeros(n, dtype=np.int64)
        kept_per_row[:base_n] = keep_csum[offsets_v[1:]] - keep_csum[offsets_v[:-1]]
        add_rows, add_counts, added = _flatten(additions)
        add_per_row = np.zeros(n, dtype=np.int64)
        add_per_row[add_rows] = add_counts

        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_per_row + add_per_row, out=offsets[1:])
        merged = np.empty(int(offsets[-1]), dtype=np.int64)

        kept = targets_v[keep]
        if kept.size:
            # destination of each surviving element: its position within the
            # kept-per-row flat order plus the room additions open up in
            # earlier rows
            kept_offsets = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(kept_per_row[:base_n]))
            )
            shift = offsets[:base_n] - kept_offsets[:-1]
            merged[np.arange(kept.size, dtype=np.int64) + np.repeat(shift, kept_per_row[:base_n])] = kept
        if added.size:
            # a row's additions fill its last slots, in their (sorted) order
            first = offsets[add_rows + 1] - add_counts
            flat_start = np.cumsum(add_counts) - add_counts
            merged[np.arange(added.size, dtype=np.int64) + np.repeat(first - flat_start, add_counts)] = added

        out_offsets = array("q")
        out_offsets.frombytes(np.ascontiguousarray(offsets).tobytes())
        out_targets = array("q")
        out_targets.frombytes(np.ascontiguousarray(merged).tobytes())
        return CSRGraph(
            out_offsets,
            out_targets,
            list(csr.external_ids) + new_vertices,
            source=source,
            index=index,
        )

    # ------------------------------------------------------------------ #
    # PageRank
    # ------------------------------------------------------------------ #
    def pagerank(
        self,
        csr: "CSRGraph",
        damping: float,
        max_iterations: int,
        tolerance: float,
        initial: Sequence[float] | None = None,
    ) -> list[float]:
        """Vectorised power iteration, **bit-identical** to the reference.

        The reference kernel seeds ``next_ranks[v] = base`` and then adds
        the damped shares in global edge order.  ``np.bincount`` accumulates
        its weights in one sequential pass over the index array, so scoring
        a static ``[0..n) ++ targets`` index array against
        ``[base]*n ++ shares-per-edge`` weights reproduces that exact
        addition sequence per vertex; the dangling mass and the convergence
        change are summed sequentially in index order like the reference.
        The stopping decision therefore flips at the same iteration, leaving
        no float divergence at all (the documented contract is still the
        conservative <= 1e-9).
        """
        n = csr.n
        _, targets = _views(csr)
        degrees = _out_degrees(csr)
        spreading = degrees > 0
        dangling = np.flatnonzero(~spreading)
        scatter_index = np.concatenate((np.arange(n, dtype=np.int64), targets))
        weights = np.empty(n + targets.size, dtype=np.float64)
        shares = np.zeros(n, dtype=np.float64)
        if initial is None:
            ranks = np.full(n, 1.0 / n, dtype=np.float64)
        else:
            ranks = np.array(initial, dtype=np.float64)
        for _ in range(max_iterations):
            # sequential left-to-right sums in index order, like the
            # reference (the dangling set is typically tiny)
            dangling_mass = sum(ranks[dangling].tolist())
            base = (1.0 - damping) / n + damping * dangling_mass / n
            np.divide(damping * ranks, degrees, out=shares, where=spreading)
            weights[:n] = base
            weights[n:] = np.repeat(shares, degrees)
            next_ranks = np.bincount(scatter_index, weights=weights, minlength=n)
            change = sum(np.abs(next_ranks - ranks).tolist())
            ranks = next_ranks
            if change < tolerance:
                break
        return ranks.tolist()

    def pagerank_correction(
        self,
        csr: "CSRGraph",
        ranks: Sequence[float],
        residual: dict[int, float],
        damping: float,
        max_iterations: int,
        tolerance: float,
    ) -> list[float] | None:
        """The reference series with the frontier held as an index array.

        A term gathers the frontier's out-edges and scatters them with
        ``np.bincount`` over the index window they land in, so it costs the
        frontier's edge volume plus that window — not ``n`` — while the
        delta's neighbourhood is small; once the frontier is every vertex
        the edge arrays *are* the gather, and a term is one sweep over them:
        what a dense power-iteration step costs.
        """
        n = csr.n
        offsets, targets = _views(csr)
        degrees = _out_degrees(csr)
        if not degrees.all():
            return None
        repaired = np.array(ranks, dtype=np.float64)
        # the frontier stays in ascending index order (flatnonzero keeps it
        # so), which is what lets a full frontier read the edge arrays as-is
        seeds = sorted(residual)
        frontier = np.array(seeds, dtype=np.int64)
        values = np.array([residual[v] for v in seeds], dtype=np.float64)
        for _ in range(max_iterations):
            repaired[frontier] += values
            if not frontier.size or np.abs(values).sum() < tolerance:
                break
            counts = degrees[frontier]
            shares = np.repeat(damping * values / counts, counts)
            if frontier.size == n:
                low, spread = 0, np.bincount(targets, weights=shares)
            else:
                reached = _gather_targets(offsets, targets, frontier)
                low = reached.min()
                spread = np.bincount(reached - low, weights=shares)
            support = np.flatnonzero(spread)
            frontier, values = support + low, spread[support]
        return repaired.tolist()

    # ------------------------------------------------------------------ #
    # connected components
    # ------------------------------------------------------------------ #
    def relabel_components(
        self, labels: Sequence[int], n: int, absorbed: dict[int, int]
    ) -> list[int]:
        previous = np.array(labels, dtype=np.int64)
        count = int(previous.max()) + 1 if previous.size else 0
        root = np.arange(count + n - previous.size, dtype=np.int64)
        extended = np.concatenate((previous, root[count:]))
        root[np.fromiter(absorbed, dtype=np.int64, count=len(absorbed))] = np.fromiter(
            absorbed.values(), dtype=np.int64, count=len(absorbed)
        )
        rank = np.cumsum(root == np.arange(root.size)) - 1
        return rank[root[extended]].tolist()

    def connected_components(self, csr: "CSRGraph") -> list[int]:
        """Hooking + pointer jumping over the flat directed edge list.

        ``parent`` is a forest of stars between rounds.  A round reads every
        live edge as a pair of roots, drops the pairs already inside one tree
        (they never come back), hooks each larger root under the smallest
        root it touches, and jumps ``parent = parent[parent]`` until the
        trees are stars again.  A root that survives a round has no smaller
        neighbouring root, and one that survives two has absorbed every
        neighbour it had, so the roots of a component at least halve every
        two rounds: ``O(log n)`` rounds of ``O(live edges)`` array work,
        whatever the diameter.  A root only ever hooks under a smaller one,
        so every root is its component's lowest index and ranking the roots
        is the reference labelling (0-based, by first vertex).
        """
        n = csr.n
        parent = np.arange(n, dtype=np.int64)
        u, v = _edge_sources(csr), _views(csr)[1]
        while True:
            live = u != v  # self-loops, then edges whose ends share a root
            u, v = u[live], v[live]
            if not u.size:
                break
            TraversalCounters.hook_rounds += 1
            np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
            u, v = parent[u], parent[v]
        return (np.cumsum(parent == np.arange(n, dtype=np.int64)) - 1)[parent].tolist()

    # ------------------------------------------------------------------ #
    # k-core
    # ------------------------------------------------------------------ #
    def core_numbers(self, csr: "CSRGraph") -> list[int]:
        n = csr.n
        if n == 0:
            return []
        offsets, targets = _undirected_csr(csr)
        current = np.diff(offsets)
        removed = np.zeros(n, dtype=bool)
        cores = np.zeros(n, dtype=np.int64)
        remaining = n
        k = 0
        while remaining:
            peel = np.flatnonzero(~removed & (current <= k))
            if peel.size == 0:
                k += 1
                continue
            cores[peel] = k
            removed[peel] = True
            remaining -= peel.size
            neighbors, _ = _gather(offsets, targets, peel)
            alive = neighbors[~removed[neighbors]]
            if alive.size:
                current -= np.bincount(alive, minlength=n)
        return cores.tolist()

    # ------------------------------------------------------------------ #
    # triangles / clustering
    # ------------------------------------------------------------------ #
    def triangles_per_vertex(
        self, csr: "CSRGraph", lo: int = 0, hi: int | None = None
    ) -> list[int]:
        """Per-vertex counts over the u < v < w orientation; with a
        ``[lo, hi)`` range only triangles whose smallest vertex lies in it."""
        n = csr.n
        if hi is None:
            hi = n
        offsets, targets = _undirected_csr(csr)
        counts = np.zeros(n, dtype=np.int64)
        hits: list[np.ndarray] = []
        for u in range(lo, hi):
            row = _sorted_row(offsets, targets, u)
            higher = row[np.searchsorted(row, u + 1) :]  # rows are sorted
            if higher.size < 2:
                continue
            candidates, sources = _gather(offsets, targets, higher)
            mask = candidates > sources
            candidates, sources = candidates[mask], sources[mask]
            position = np.searchsorted(higher, candidates)
            position[position == higher.size] = 0  # any in-range slot; masked below
            found = higher[position] == candidates
            wedges = int(np.count_nonzero(found))
            if wedges:
                counts[u] += wedges
                hits.append(sources[found])
                hits.append(candidates[found])
        if hits:
            counts += np.bincount(np.concatenate(hits), minlength=n)
        return counts.tolist()

    def _links_among_neighbors(self, csr: "CSRGraph", index: int) -> tuple[int, int]:
        """``(degree, edge count among the neighborhood)`` of one vertex."""
        offsets, targets = _undirected_csr(csr)
        row = _sorted_row(offsets, targets, index)
        if row.size < 2:
            return int(row.size), 0
        candidates, _ = _gather(offsets, targets, row)
        position = np.searchsorted(row, candidates)
        position[position == row.size] = 0
        # each neighborhood edge is seen from both endpoints
        links = int(np.count_nonzero(row[position] == candidates)) // 2
        return int(row.size), links

    def clustering_coefficient(self, csr: "CSRGraph", index: int) -> float:
        degree, links = self._links_among_neighbors(csr, index)
        if degree < 2:
            return 0.0
        return 2.0 * links / (degree * (degree - 1))

    def average_clustering(self, csr: "CSRGraph") -> float:
        # local import: repro.algorithms.triangles imports the backend layer
        from repro.algorithms.triangles import clustering_from_counts

        return clustering_from_counts(csr, self.triangles_per_vertex(csr))

    # ------------------------------------------------------------------ #
    # the block-wise source sweep: closeness, betweenness, diameter and the
    # plan compiler's fused sweep all run through it.  Native form is a
    # narrow-int distance row / an np.float64 delta, converted only on demand
    # ------------------------------------------------------------------ #
    def sweep(self, csr: "CSRGraph", sources, brandes=()):
        sources = list(sources)
        # one bit lane per source: a block is as wide as the uint64 word
        for start in range(0, len(sources), 64):
            block = sources[start : start + 64]
            for source, tree in zip(block, self._block_distances(csr, block)):
                yield tree, (self._dependency(csr, tree, source) if source in brandes else None)

    def _block_distances(self, csr: "CSRGraph", block: list[int]) -> np.ndarray:
        """Bit-parallel multi-source BFS: the ``len(block) x n`` hop-distance
        block (``-1`` unreachable) of up to 64 sources.

        ``seen`` / ``front`` hold one lane bit per source in a word per
        vertex, so a level gathers the active rows once for every lane, ORs
        each edge's source word into its target and unpacks only the fresh
        bits: a level costs the frontier's edges, not that times the lanes.
        """
        n = csr.n
        offsets, targets = _views(csr)
        # the narrowest signed int holding every depth the loop can count to
        distances = np.full((len(block), n), -1, dtype=np.min_scalar_type(-n - 1))
        distances[np.arange(len(block)), block] = 0
        # "<u8": the byte view below reads the lane bits little-endian
        seen = np.zeros(n, dtype="<u8")
        np.bitwise_or.at(seen, block, np.uint64(1) << np.arange(len(block), dtype="<u8"))
        front = seen
        frontier = np.flatnonzero(front)
        depth = 0
        while frontier.size:
            depth += 1
            candidates, origins = _gather(offsets, targets, frontier)
            reached = np.zeros(n, dtype="<u8")
            np.bitwise_or.at(reached, candidates, front[origins])
            front = reached & ~seen
            seen |= front
            frontier = np.flatnonzero(front)
            bits = np.unpackbits(
                front[frontier].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            )
            vertex, lane = np.nonzero(bits)
            distances[lane, frontier[vertex]] = depth
        return distances

    def _dependency(self, csr: "CSRGraph", tree: np.ndarray, source: int) -> np.ndarray:
        """One source's Brandes dependency vector (source entry zeroed) from
        its distance row, edge-centrically: the shortest-path DAG is the
        edges with ``tree[w] == tree[u] + 1``, selected once over the flat
        edge list and stably grouped by level.

        Edges keep CSR order inside a level, so every ``bincount`` bin adds
        its terms in one fixed order (bin ``w`` ascending ``u``, bin ``u``
        its row order) — the result is a function of the source alone, not
        of the block it rode in.
        """
        n = csr.n
        origins, targets = _edge_sources(csr), _views(csr)[1]
        level = np.repeat(tree, _out_degrees(csr))  # == tree[origins], cheaper
        dag = np.flatnonzero((level >= 0) & (tree[targets] == level + 1))
        level = level[dag]
        dag = dag[np.argsort(level, kind="stable")]
        u, w = origins[dag], targets[dag]
        bounds = np.cumsum(np.bincount(level)).tolist()
        spans = [slice(lo, hi) for lo, hi in zip([0] + bounds, bounds)]
        sigma = np.zeros(n, dtype=np.float64)  # exact: path counts < 2^53
        sigma[source] = 1.0
        for span in spans:
            sigma += np.bincount(w[span], weights=sigma[u[span]], minlength=n)
        delta = np.zeros(n, dtype=np.float64)
        for span in reversed(spans):
            v, t = u[span], w[span]
            delta += np.bincount(v, weights=(sigma[v] / sigma[t]) * (1.0 + delta[t]), minlength=n)
        delta[source] = 0.0
        return delta

    def bfs_tree(self, csr: "CSRGraph", source: int) -> np.ndarray:
        return next(self.sweep(csr, (source,)))[0]

    def brandes_tree(
        self, csr: "CSRGraph", source: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return next(self.sweep(csr, (source,), (source,)))

    def tree_stats(self, tree: np.ndarray) -> tuple[int, int, int]:
        positive = tree > 0
        reached = tree[positive]
        return (
            int(reached.size),
            int(reached.sum()),
            int(reached.max()) if reached.size else 0,
        )

    def tree_distances(self, tree: np.ndarray) -> list[int]:
        return tree.tolist()

    def tree_delta(self, delta: np.ndarray) -> list[float]:
        return delta.tolist()

    def add_delta(self, total: np.ndarray | None, delta: np.ndarray) -> np.ndarray:
        return (0.0 if total is None else total) + delta

    def warm_undirected(self, csr: "CSRGraph") -> None:
        _undirected_csr(csr)

    # ------------------------------------------------------------------ #
    # neighborhood similarity (sorted-array intersections)
    # ------------------------------------------------------------------ #
    def _neighborhood_array(self, csr: "CSRGraph", index: int) -> np.ndarray:
        """Sorted out-neighborhood of a dense index, excluding itself."""
        offsets, targets = _views(csr)
        row = np.unique(targets[offsets[index] : offsets[index + 1]])
        return row[row != index]

    def common_neighbors(self, csr: "CSRGraph", iu: int, iv: int) -> set[int]:
        shared = np.intersect1d(
            self._neighborhood_array(csr, iu),
            self._neighborhood_array(csr, iv),
            assume_unique=True,
        )
        return set(shared[(shared != iu) & (shared != iv)].tolist())

    def jaccard(self, csr: "CSRGraph", iu: int, iv: int) -> float:
        nu = self._neighborhood_array(csr, iu)
        nv = self._neighborhood_array(csr, iv)
        intersection = np.intersect1d(nu, nv, assume_unique=True).size
        union = nu.size + nv.size - intersection
        if not union:
            return 0.0
        return intersection / union

    def adamic_adar(self, csr: "CSRGraph", iu: int, iv: int) -> float:
        score = 0.0
        for index in sorted(self.common_neighbors(csr, iu, iv)):
            degree = self._neighborhood_array(csr, index).size
            if degree > 1:
                score += 1.0 / math.log(degree)
        return score

    def preferential_attachment(self, csr: "CSRGraph", iu: int, iv: int) -> int:
        return self._neighborhood_array(csr, iu).size * self._neighborhood_array(
            csr, iv
        ).size
