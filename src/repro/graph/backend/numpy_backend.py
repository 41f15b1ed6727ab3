"""NumPy-vectorised kernel backend over zero-copy CSR snapshot views.

The snapshot's ``offsets``/``targets`` are contiguous 64-bit buffers —
``array('q')`` for in-memory builds, ``"q"``-cast memoryviews over a
read-only mmap for loaded snapshot files — and both expose the buffer
protocol, so ``np.frombuffer`` wraps them as ``np.int64`` views **without
copying**.  A parallel superstep worker that mmaps the run's snapshot file
therefore runs these kernels directly over the shared page-cache copy of the
arrays.

Kernel strategies (see ``tests/test_backend_parity.py`` for the contract):

* **PageRank / gather** — scatter-gather with ``np.bincount`` weights over
  the flat edge array (accumulation in global edge order, the same order the
  reference kernel adds shares in) and ``np.add.reduceat`` segment sums.
* **BFS / components / shortest paths** — frontier expansion with flat
  gathers; ``np.unique(..., return_index=True)`` keeps the *first-occurrence
  discovery order*, so visit orders and parent pointers equal the reference
  FIFO kernels exactly, not just up to relabeling.  Components are peeled
  with vectorised BFS sweeps from ascending start vertices, which reproduces
  the union-find labeling (0-based, ordered by first vertex).
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


def _gather_targets(
    offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Flat targets of all out-edges of ``frontier``, concatenated in
    frontier order with per-vertex target order preserved."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    index = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    return targets[index]


def _gather(
    offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`_gather_targets`, also returning the per-edge sources."""
    counts = offsets[frontier + 1] - offsets[frontier]
    return (
        _gather_targets(offsets, targets, frontier),
        np.repeat(frontier, counts),
    )


def _sorted_row(offsets: np.ndarray, targets: np.ndarray, index: int) -> np.ndarray:
    return targets[offsets[index] : offsets[index + 1]]


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
    # traversals (first-occurrence frontier expansion == reference FIFO)
    # ------------------------------------------------------------------ #
    def _bfs_distances_array(
        self, csr: "CSRGraph", source: int, max_depth: int | None = None
    ) -> np.ndarray:
        offsets, targets = _views(csr)
        distances = np.full(csr.n, -1, dtype=np.int64)
        distances[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            candidates, _ = _gather(offsets, targets, frontier)
            frontier = np.unique(candidates[distances[candidates] < 0])
            distances[frontier] = depth
        return distances

    def bfs_distances(
        self, csr: "CSRGraph", source: int, max_depth: int | None = None
    ) -> list[int]:
        return self._bfs_distances_array(csr, source, max_depth=max_depth).tolist()

    def bfs_order(self, csr: "CSRGraph", source: int) -> list[int]:
        offsets, targets = _views(csr)
        seen = np.zeros(csr.n, dtype=bool)
        seen[source] = True
        order: list[int] = [source]
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            candidates, _ = _gather(offsets, targets, frontier)
            fresh = candidates[~seen[candidates]]
            _, first = np.unique(fresh, return_index=True)
            frontier = fresh[np.sort(first)]  # first-occurrence discovery order
            seen[frontier] = True
            order.extend(frontier.tolist())
        return order

    def bfs_parents(self, csr: "CSRGraph", source: int) -> list[int]:
        offsets, targets = _views(csr)
        parents = np.full(csr.n, -2, dtype=np.int64)  # -2 = undiscovered
        parents[source] = -1
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            candidates, sources = _gather(offsets, targets, frontier)
            mask = parents[candidates] == -2
            fresh, fresh_sources = candidates[mask], sources[mask]
            _, first = np.unique(fresh, return_index=True)
            first.sort()
            frontier = fresh[first]
            parents[frontier] = fresh_sources[first]  # first discovering edge
        return parents.tolist()

    # ------------------------------------------------------------------ #
    # snapshot maintenance
    # ------------------------------------------------------------------ #
    def apply_overlay(self, csr: "CSRGraph", overlay, *, source=None) -> "CSRGraph":
        """Vectorised delta-overlay merge, element-wise identical to the
        reference :func:`repro.graph.delta.merge_overlay`.

        Strips touched pairs with per-row masks over the flat target array
        (only rows the overlay touched are visited in Python), scatters the
        surviving targets to their shifted destinations in one gather, then
        drops each row's sorted net additions at its end — ``O(n + m)`` array
        work plus ``O(|delta|)`` loop iterations.
        """
        from repro.graph.kernel import CSRGraph

        index, new_vertices, strip, additions = overlay.plan(csr)
        offsets_v, targets_v = _views(csr)
        base_n = csr.n
        n = base_n + len(new_vertices)

        keep = np.ones(targets_v.size, dtype=bool)
        for row, dropped in strip.items():
            if row >= base_n:
                continue
            start, end = int(offsets_v[row]), int(offsets_v[row + 1])
            if start == end:
                continue
            keep[start:end] = ~np.isin(
                targets_v[start:end],
                np.fromiter(dropped, dtype=np.int64, count=len(dropped)),
            )

        keep_csum = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(keep, dtype=np.int64))
        )
        kept_per_row = np.zeros(n, dtype=np.int64)
        kept_per_row[:base_n] = keep_csum[offsets_v[1:]] - keep_csum[offsets_v[:-1]]
        add_per_row = np.zeros(n, dtype=np.int64)
        for row, extra in additions.items():
            add_per_row[row] = len(extra)

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
        for row, extra in additions.items():
            end = int(offsets[row + 1])
            merged[end - len(extra) : end] = extra

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
        n = csr.n
        if n == 0:
            return []
        offsets, targets = _undirected_csr(csr)
        # BFS sweeps label one non-singleton component each; every
        # undirected edge is gathered exactly once over the whole pass, and
        # frontier dedup goes through a flag array instead of a sort.
        # Isolated vertices (the bulk of the component *count* on extracted
        # graphs) are handled wholesale: a unique provisional label each.
        raw = np.full(n, -1, dtype=np.int64)
        isolated = np.diff(offsets) == 0
        raw[isolated] = n + np.flatnonzero(isolated)
        sweep = 0
        for start in np.flatnonzero(~isolated).tolist():
            if raw[start] >= 0:
                continue
            raw[start] = sweep
            frontier = np.array([start], dtype=np.int64)
            while frontier.size:
                candidates = _gather_targets(offsets, targets, frontier)
                fresh = candidates[raw[candidates] < 0]
                raw[fresh] = sweep
                # dedup proportional to the frontier, not to n: a
                # high-diameter component must not pay a full-array scan
                # per level
                frontier = np.unique(fresh)
            sweep += 1
        # canonical relabel: 0-based in order of each component's first
        # vertex — exactly the reference union-find labeling
        unique, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        rank = np.empty(unique.size, dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(unique.size, dtype=np.int64)
        return rank[inverse].tolist()

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
    def _triangle_counts(
        self, csr: "CSRGraph", lo: int = 0, hi: int | None = None
    ) -> tuple[int, np.ndarray]:
        """``(total, per-vertex counts)`` over the u < v < w orientation.

        With a ``[lo, hi)`` range only triangles whose smallest vertex lies
        in the range are counted (the per-vertex counts then cover only those
        triangles — whole-graph callers use the default full range).
        """
        n = csr.n
        if hi is None:
            hi = n
        offsets, targets = _undirected_csr(csr)
        counts = np.zeros(n, dtype=np.int64)
        hits: list[np.ndarray] = []
        total = 0
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
                total += wedges
                counts[u] += wedges
                hits.append(sources[found])
                hits.append(candidates[found])
        if hits:
            counts += np.bincount(np.concatenate(hits), minlength=n)
        return total, counts

    def count_triangles(self, csr: "CSRGraph", lo: int = 0, hi: int | None = None) -> int:
        return self._triangle_counts(csr, lo, hi)[0]

    def triangles_per_vertex(self, csr: "CSRGraph") -> list[int]:
        return self._triangle_counts(csr)[1].tolist()

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
        n = csr.n
        if n == 0:
            return 0.0
        degrees = np.diff(_undirected_csr(csr)[0])
        triangles = self._triangle_counts(csr)[1]
        # identical per-vertex arithmetic to the reference; only the final
        # mean re-associates the sum
        total = 0.0
        for vertex in np.flatnonzero(degrees >= 2).tolist():
            degree = int(degrees[vertex])
            total += 2.0 * int(triangles[vertex]) / (degree * (degree - 1))
        return total / n

    # ------------------------------------------------------------------ #
    # centrality
    # ------------------------------------------------------------------ #
    def closeness_centrality(
        self, csr: "CSRGraph", lo: int = 0, hi: int | None = None
    ) -> list[float]:
        from repro.algorithms.centrality import closeness_value

        n = csr.n
        if hi is None:
            hi = n
        result = [0.0] * (hi - lo)
        if n <= 1:
            return result
        for vertex in range(lo, hi):
            reachable, total, _ = self.tree_stats(self._bfs_distances_array(csr, vertex))
            result[vertex - lo] = closeness_value(n, reachable, total)
        return result

    # ------------------------------------------------------------------ #
    # shared traversal intermediates (plan-compiler sweep protocol): native
    # form is the np.int64 / np.float64 array, converted only on demand
    # ------------------------------------------------------------------ #
    def bfs_tree(self, csr: "CSRGraph", source: int) -> np.ndarray:
        return self._bfs_distances_array(csr, source)

    def brandes_tree(
        self, csr: "CSRGraph", source: int
    ) -> tuple[np.ndarray, np.ndarray]:
        distance, delta = self._brandes_arrays(csr, source)
        return distance, delta

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

    def warm_undirected(self, csr: "CSRGraph") -> None:
        _undirected_csr(csr)

    def _brandes_arrays(
        self, csr: "CSRGraph", source: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One source's Brandes traversal: ``(distance, delta)`` arrays, the
        delta's source entry zeroed."""
        n = csr.n
        offsets, targets = _views(csr)
        distance = np.full(n, -1, dtype=np.int64)
        distance[source] = 0
        sigma = np.zeros(n, dtype=np.float64)  # exact: path counts < 2^53
        sigma[source] = 1.0
        levels: list[np.ndarray] = [np.array([source], dtype=np.int64)]
        depth = 0
        while True:
            candidates, srcs = _gather(offsets, targets, levels[-1])
            if candidates.size == 0:
                break
            frontier = np.unique(candidates[distance[candidates] < 0])
            distance[frontier] = depth + 1
            forward = distance[candidates] == depth + 1
            sigma += np.bincount(
                candidates[forward], weights=sigma[srcs[forward]], minlength=n
            )
            if frontier.size == 0:
                break
            levels.append(frontier)
            depth += 1
        delta = np.zeros(n, dtype=np.float64)
        for depth in range(len(levels) - 1, 0, -1):
            candidates, srcs = _gather(offsets, targets, levels[depth - 1])
            down = distance[candidates] == depth
            w, v = candidates[down], srcs[down]
            delta += np.bincount(
                v, weights=(sigma[v] / sigma[w]) * (1.0 + delta[w]), minlength=n
            )
        delta[source] = 0.0
        return distance, delta

    def _betweenness_delta(self, csr: "CSRGraph", source: int) -> np.ndarray:
        return self._brandes_arrays(csr, source)[1]

    def betweenness_contribution(self, csr: "CSRGraph", source: int) -> list[float]:
        return self._betweenness_delta(csr, source).tolist()

    def betweenness(self, csr: "CSRGraph", sources: list[int]) -> list[float]:
        # elementwise float64 addition per source, in source order — the
        # exact operation sequence the chunk-parallel merge replays, so
        # serial and scheduled results are bit-identical per backend
        betweenness = np.zeros(csr.n, dtype=np.float64)
        for source in sources:
            betweenness += self._betweenness_delta(csr, source)
        return betweenness.tolist()

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
