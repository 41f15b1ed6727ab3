"""The reference kernel backend: pure-Python loops over dense snapshot arrays.

These are the PR 1 algorithm kernels, moved behind the
:class:`KernelBackend` protocol without any semantic change — same iteration
order, same floating-point summation order, same tie-breaks.  The suite run
with ``REPRO_KERNEL_BACKEND=python`` is therefore bit-identical to the
pre-backend tree, which is what makes this backend the determinism reference
every other backend is validated against (``tests/test_backend_parity.py``).

All kernels take a :class:`~repro.graph.kernel.CSRGraph` plus dense integer
indexes and return flat per-index lists (or scalars); external-ID encoding
and decoding, sampling, scaling and the shaping of sweep products into
answers stay with the algorithms' runners, which call these kernels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Sequence

from repro.graph.kernel import (
    bfs_distances_kernel,
    bfs_order_kernel,
    bfs_parents_kernel,
)
from repro.utils.rand import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.kernel import CSRGraph


class KernelBackend:
    """Protocol of the algorithm kernels an execution backend provides.

    The base class *is* the reference implementation's skeleton: subclasses
    override whichever kernels they can execute faster and inherit the rest,
    so a backend is never incomplete.  Integer-valued kernels must match the
    reference exactly; float-valued kernels within 1e-9 L-infinity (see
    :mod:`repro.graph.backend`).

    The protocol holds kernels only.  Each registry algorithm has one runner
    that calls them — closeness, betweenness and diameter go through
    :meth:`sweep_products` (:meth:`sweep` plus the ``tree_*`` accessors),
    triangles and clustering through :meth:`triangles_per_vertex` — so a
    backend speeds an algorithm up by overriding a kernel, never by
    re-implementing its orchestration.
    Neighborhood-similarity scores are not kernels: they are functions over
    ``csr.neighbor_set`` in :mod:`repro.algorithms.similarity`, the same on
    every backend.
    """

    #: resolved name, stable across processes (workers re-resolve by it)
    name = "python"

    # ------------------------------------------------------------------ #
    # whole-graph scans
    # ------------------------------------------------------------------ #
    def degrees(self, csr: "CSRGraph") -> list[int]:
        """Out-degree per dense index."""
        return csr.degrees()

    def segment_sums(
        self, csr: "CSRGraph", values: Sequence[float], lo: int = 0, hi: int | None = None
    ) -> list[float]:
        """Per-vertex sum of ``values`` over each out-neighborhood.

        This is the gather phase of the vertex-centric engines: entry ``i``
        is ``sum(values[t] for t in neighbors(lo + i))`` summed in snapshot
        target order (the serial engines' iteration order, so results are
        deterministic for any partitioning of ``[lo, hi)``).
        """
        if hi is None:
            hi = csr.n
        offsets = csr.offsets_list
        targets = csr.targets_list
        sums: list[float] = []
        append = sums.append
        for vertex in range(lo, hi):
            total = 0.0
            for e in range(offsets[vertex], offsets[vertex + 1]):
                total += values[targets[e]]
            append(total)
        return sums

    # ------------------------------------------------------------------ #
    # traversals
    # ------------------------------------------------------------------ #
    def bfs_distances(
        self, csr: "CSRGraph", source: int, max_depth: int | None = None
    ) -> list[int]:
        """Hop distances from ``source``; ``-1`` marks unreachable."""
        return bfs_distances_kernel(csr, source, max_depth=max_depth)

    def bfs_order(self, csr: "CSRGraph", source: int) -> list[int]:
        """Dense indexes in BFS visit order from ``source``."""
        return bfs_order_kernel(csr, source)

    def bfs_parents(self, csr: "CSRGraph", source: int) -> list[int]:
        """BFS-tree parent per dense index (``-1`` root, ``-2`` unreached)."""
        return bfs_parents_kernel(csr, source)

    # ------------------------------------------------------------------ #
    # shared traversal intermediates (the sweep protocol)
    #
    # One traversal per source feeds closeness, diameter, bfs *and*
    # betweenness finishes: hop distances are uniquely determined
    # integers, so any backend's tree yields the same stats, and a Brandes
    # traversal's internal distance array doubles as the BFS tree.  Trees
    # and deltas stay in the backend's native form until a ``tree_*``
    # accessor converts them, so a vectorised backend never round-trips
    # through Python lists just to compute (reachable, total, ecc).
    # ------------------------------------------------------------------ #
    def sweep(self, csr: "CSRGraph", sources, brandes=()):
        """The block-wise source sweep every per-source algorithm goes
        through: yields ``(tree, delta | None)`` per source, in source order
        and native form — the Brandes pair where the source is in
        ``brandes``, a plain BFS tree otherwise.

        The reference grows one traversal per source; a backend may grow a
        block of them at once, as long as a source's products do not depend
        on which other sources ride along.
        """
        for source in sources:
            if source in brandes:
                yield self._brandes_tree(csr, source)
            else:
                yield bfs_distances_kernel(csr, source), None

    def sweep_products(self, csr: "CSRGraph", payload):
        """:meth:`sweep` in product form, for a runner's one demand, the
        plan's fused sweep and a pool worker's slice alike: per ``(source,
        want_delta, want_dists)`` of ``payload``, ``(stats, delta | None,
        dists | None)`` — the delta native, the distances a list."""
        trees = self.sweep(
            csr,
            [source for source, _, _ in payload],
            {source for source, want_delta, _ in payload if want_delta},
        )
        for (_, _, want_dists), (tree, delta) in zip(payload, trees):
            yield (
                self.tree_stats(tree),
                delta,
                self.tree_distances(tree) if want_dists else None,
            )

    def _brandes_tree(self, csr: "CSRGraph", source: int):
        """``(tree, delta)``: the Brandes traversal's distance array plus the
        source's dependency vector (source entry zeroed).

        The tree equals the plain BFS distances element-for-element, which
        is what lets one Brandes traversal serve closeness/diameter/bfs
        demands of the same source.
        """
        n = csr.n
        offsets = csr.offsets_list
        targets = csr.targets_list
        # single-source shortest paths (unweighted -> BFS)
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        distance = [-1] * n
        sigma[source] = 1.0
        distance[source] = 0
        stack: list[int] = [source]
        head = 0
        while head < len(stack):
            current = stack[head]
            head += 1
            next_distance = distance[current] + 1
            for e in range(offsets[current], offsets[current + 1]):
                neighbor = targets[e]
                if distance[neighbor] < 0:
                    distance[neighbor] = next_distance
                    stack.append(neighbor)
                if distance[neighbor] == next_distance:
                    sigma[neighbor] += sigma[current]
                    predecessors[neighbor].append(current)
        # accumulation in reverse visit order
        delta = [0.0] * n
        for w in reversed(stack):
            for v in predecessors[w]:
                if sigma[w] > 0:
                    delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
        delta[source] = 0.0
        return distance, delta

    def tree_stats(self, tree) -> tuple[int, int, int]:
        """``(reachable, distance_total, eccentricity)`` of a native tree —
        integer-exact on every backend, hence shareable across them."""
        reachable = 0
        total = 0
        ecc = 0
        for distance in tree:
            if distance > 0:
                reachable += 1
                total += distance
                if distance > ecc:
                    ecc = distance
        return reachable, total, ecc

    def tree_distances(self, tree) -> list[int]:
        """A native tree as a plain hop-distance list."""
        return tree

    def tree_delta(self, delta) -> list[float]:
        """A native Brandes dependency vector as a plain float list."""
        return delta

    def add_delta(self, total, delta):
        """``total + delta`` elementwise, in native form (``None`` is the
        zero vector): the one float addition that full-source, streamed and
        re-summed betweenness all perform, source by source — which is why
        they agree bit for bit however the sources were scheduled."""
        if total is None:
            return [0.0 + value for value in delta]
        return [current + value for current, value in zip(total, delta)]

    # ------------------------------------------------------------------ #
    # derived-view warmers (plan-compiler derive nodes)
    # ------------------------------------------------------------------ #
    def warm_undirected(self, csr: "CSRGraph") -> None:
        """Materialise this backend's symmetrised adjacency view so the
        derivation cost is attributable to one plan node instead of hiding
        inside the first consuming kernel."""
        csr.undirected_csr()

    def reverse_csr(self, csr: "CSRGraph") -> tuple[array, array]:
        """In-edges as a CSR: ``(offsets, sources)``, where
        ``sources[offsets[v] : offsets[v + 1]]`` lists the tail of every edge
        into ``v`` in ascending order (once per parallel edge).

        Cached on the snapshot under the one backend-neutral key
        ``"rev_csr"`` as ``array('q')`` pairs, so whichever backend derives
        it first serves the other; only the build differs per backend."""
        cache = csr._backend_cache
        reverse = cache.get("rev_csr")
        if reverse is None:
            reverse = cache["rev_csr"] = self._build_reverse_csr(csr)
        return reverse

    def _build_reverse_csr(self, csr: "CSRGraph") -> tuple[array, array]:
        """A counting pass: in-degree prefix sums, then every edge dropped
        into its target's next free slot in CSR order."""
        n = csr.n
        offsets, targets = csr.offsets, csr.targets
        counts = array("q", bytes(8 * (n + 1)))
        for v in targets:
            counts[v + 1] += 1
        in_offsets = array("q", accumulate(counts))
        free = array("q", in_offsets)
        sources = array("q", bytes(8 * len(targets)))
        for u in range(n):
            for e in range(offsets[u], offsets[u + 1]):
                v = targets[e]
                sources[free[v]] = u
                free[v] += 1
        return in_offsets, sources

    # ------------------------------------------------------------------ #
    # snapshot maintenance
    # ------------------------------------------------------------------ #
    def apply_overlay(self, csr: "CSRGraph", overlay, *, source=None) -> "CSRGraph":
        """Merge a :class:`~repro.graph.delta.DeltaOverlay` over ``csr``.

        Pure array copying — no graph traversal; every backend's merge must
        be element-wise identical to the reference
        (:func:`repro.graph.delta.merge_overlay`).
        """
        from repro.graph.delta import merge_overlay

        return merge_overlay(csr, overlay, source=source)

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
        """Dense power iteration; returns the per-index rank list.

        ``initial`` seeds the iteration (incremental warm starts) instead of
        the uniform vector; the termination contract — per-iteration L1
        change below ``tolerance``, capped at ``max_iterations`` — is
        unchanged, so a converged warm run lands on the same fixed point as
        the cold run.
        """
        n = csr.n
        offsets = csr.offsets_list
        targets = csr.targets_list
        ranks = [1.0 / n] * n if initial is None else list(initial)
        for _ in range(max_iterations):
            dangling_mass = sum(
                ranks[v] for v in range(n) if offsets[v + 1] == offsets[v]
            )
            base = (1.0 - damping) / n + damping * dangling_mass / n
            next_ranks = [base] * n
            for vertex in range(n):
                start = offsets[vertex]
                end = offsets[vertex + 1]
                if start == end:
                    continue
                share = damping * ranks[vertex] / (end - start)
                for e in range(start, end):
                    next_ranks[targets[e]] += share
            change = sum(abs(next_ranks[v] - ranks[v]) for v in range(n))
            ranks = next_ranks
            if change < tolerance:
                break
        return ranks

    def pagerank_correction(
        self,
        csr: "CSRGraph",
        ranks: Sequence[float],
        residual: dict[int, float],
        damping: float,
        max_iterations: int,
        tolerance: float,
    ) -> list[float] | None:
        """``ranks + e`` where ``e = d·Pᵀe + ρ`` — the incremental PageRank
        repair (:mod:`repro.incremental.pagerank`) for a sparse residual
        ``ρ`` (dense index -> value); ``None`` when a vertex dangles, which
        couples every vertex and makes the correction dense.

        Summed as the Neumann series ``e = Σ_t (d·Pᵀ)^t ρ``, one frontier
        push per term, truncated on :meth:`pagerank`'s own contract: per-term
        L1 mass below ``tolerance``, at most ``max_iterations`` terms.
        """
        if 0 in self.degrees(csr):
            return None
        offsets = csr.offsets_list
        targets = csr.targets_list
        repaired = list(ranks)
        current = residual
        for _ in range(max_iterations):
            for v, value in current.items():
                repaired[v] += value
            if sum(abs(value) for value in current.values()) < tolerance:
                break
            spread: dict[int, float] = {}
            for u, value in current.items():
                start, end = offsets[u], offsets[u + 1]
                share = damping * value / (end - start)
                for e in range(start, end):
                    v = targets[e]
                    spread[v] = spread.get(v, 0.0) + share
            current = spread
        return repaired

    # ------------------------------------------------------------------ #
    # connected components
    # ------------------------------------------------------------------ #
    def relabel_components(
        self, labels: Sequence[int], n: int, absorbed: dict[int, int]
    ) -> list[int]:
        """The canonical labelling (0-based, ordered by first vertex) of
        ``n`` vertices after component merges: ``labels`` is the previous
        canonical labelling of the first ``len(labels)`` vertices, the rest
        are appended singletons, and ``absorbed`` maps every label that
        merged away to the lowest label of its merged component (appended
        vertices numbered on after the previous labels, in dense order)."""
        count = max(labels, default=-1) + 1
        total = count + n - len(labels)
        rank: list[int] = []
        survivors = 0
        for label in range(total):
            rank.append(survivors)
            survivors += label not in absorbed
        return [rank[absorbed.get(label, label)] for label in (*labels, *range(count, total))]

    def connected_components(self, csr: "CSRGraph") -> list[int]:
        """Component index (0-based, ordered by first vertex) per dense index.

        Integer union-find (path halving + union by size); edges are treated
        as undirected.
        """
        n = csr.n
        parent = list(range(n))
        size = [1] * n
        offsets = csr.offsets_list
        targets = csr.targets_list

        def find(item: int) -> int:
            while parent[item] != item:
                parent[item] = parent[parent[item]]  # path halving
                item = parent[item]
            return item

        for u in range(n):
            for e in range(offsets[u], offsets[u + 1]):
                ra = find(u)
                rb = find(targets[e])
                if ra == rb:
                    continue
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]

        labels = [0] * n
        component_of_root: dict[int, int] = {}
        for v in range(n):
            root = find(v)
            label = component_of_root.get(root)
            if label is None:
                label = component_of_root[root] = len(component_of_root)
            labels[v] = label
        return labels

    # ------------------------------------------------------------------ #
    # label propagation
    # ------------------------------------------------------------------ #
    def label_propagation(
        self, csr: "CSRGraph", max_iterations: int, seed: int
    ) -> list[int]:
        """Community label (a dense vertex index) per dense index.

        Semi-synchronous: vertices update sequentially within a shuffled
        round and read labels already updated earlier in the same round —
        an inherently order-dependent recurrence, which is why no backend
        overrides this kernel (there is no profitable vectorisation that
        preserves the reference semantics).  Ties break on the most frequent
        label, then the smallest external-ID ``repr``.
        """
        rng = SeededRandom(seed)
        n = csr.n
        offsets = csr.offsets_list
        targets = csr.targets_list
        reprs = [repr(external) for external in csr.external_ids]
        labels = list(range(n))

        for _ in range(max_iterations):
            changed = 0
            for vertex in rng.shuffle(list(range(n))):
                start = offsets[vertex]
                end = offsets[vertex + 1]
                if start == end:
                    continue
                counts: dict[int, int] = {}
                for e in range(start, end):
                    label = labels[targets[e]]
                    counts[label] = counts.get(label, 0) + 1
                best = sorted(
                    counts.items(), key=lambda item: (-item[1], reprs[item[0]])
                )[0][0]
                if best != labels[vertex]:
                    labels[vertex] = best
                    changed += 1
            if changed == 0:
                break
        return labels

    # ------------------------------------------------------------------ #
    # k-core
    # ------------------------------------------------------------------ #
    def core_numbers(self, csr: "CSRGraph") -> list[int]:
        """Core number per dense index (Batagelj–Zaveršnik peeling)."""
        n = csr.n
        if n == 0:
            return []
        offsets, targets = csr.undirected_csr()
        degrees = [offsets[v + 1] - offsets[v] for v in range(n)]
        max_degree = max(degrees, default=0)
        buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
        for vertex, degree in enumerate(degrees):
            buckets[degree].append(vertex)

        cores = [0] * n
        removed = bytearray(n)
        current = 0
        for degree in range(max_degree + 1):
            bucket = buckets[degree]
            while bucket:
                vertex = bucket.pop()
                if removed[vertex] or degrees[vertex] != degree:
                    continue
                current = max(current, degree)
                cores[vertex] = current
                removed[vertex] = 1
                for neighbor in targets[offsets[vertex] : offsets[vertex + 1]]:
                    if removed[neighbor]:
                        continue
                    if degrees[neighbor] > degree:
                        degrees[neighbor] -= 1
                        buckets[degrees[neighbor]].append(neighbor)
        # vertices skipped because their recorded degree was stale get
        # re-processed through the bucket they were re-appended to; isolated
        # vertices stay 0
        return cores

    # ------------------------------------------------------------------ #
    # triangles / clustering
    # ------------------------------------------------------------------ #
    def triangles_per_vertex(
        self, csr: "CSRGraph", lo: int = 0, hi: int | None = None
    ) -> list[int]:
        """Number of triangles each dense index participates in.

        With a ``[lo, hi)`` range, only triangles whose *smallest* dense
        index falls in the range are counted (at all three corners) — every
        triangle ``u < v < w`` is attributed to exactly one ``u``, so the
        vectors of any split of ``[0, n)`` add up to the whole-graph vector
        exactly (the plan compiler's sliced ``triangle-counts`` node).
        """
        offsets, targets = csr.undirected_csr()
        if hi is None:
            hi = csr.n
        counts = [0] * csr.n
        for u in range(lo, hi):
            # rows are ascending: a row's tail past its vertex is its
            # higher neighbours
            end = offsets[u + 1]
            higher = targets[bisect_right(targets, u, offsets[u], end) : end]
            if len(higher) < 2:
                continue
            higher_u = set(higher)
            for v in higher:
                end = offsets[v + 1]
                for w in targets[bisect_right(targets, v, offsets[v], end) : end]:
                    if w in higher_u:
                        counts[u] += 1
                        counts[v] += 1
                        counts[w] += 1
        return counts

    def clustering_coefficient(self, csr: "CSRGraph", index: int) -> float:
        """Local clustering coefficient of one dense index."""
        offsets, targets = csr.undirected_csr()
        neighbors = targets[offsets[index] : offsets[index + 1]]
        degree = len(neighbors)
        if degree < 2:
            return 0.0
        links = 0
        for a, b in combinations(neighbors, 2):
            at = bisect_left(targets, b, offsets[a], offsets[a + 1])
            links += at < offsets[a + 1] and targets[at] == b
        return 2.0 * links / (degree * (degree - 1))


class PythonBackend(KernelBackend):
    """The reference backend (the :class:`KernelBackend` base implementation)."""

    name = "python"
