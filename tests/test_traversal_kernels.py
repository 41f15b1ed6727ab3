"""The numpy backend's single-source traversal kernels against the reference.

``NumpyBackend.connected_components`` hooks and pointer-jumps over the flat
edge list; ``bfs_distances`` / ``bfs_order`` / ``bfs_parents`` share one
frontier-adaptive level step (a scalar loop up to ``SCALAR_FRONTIER``
vertices, one flat gather above it).  Neither pays per level any more, and
this file pins that without a clock:

* numpy ``==`` python, exactly — canonical component labels, distances
  (with and without ``max_depth``), visit order, parents — on generated
  *directed* graphs: self-loops, isolated vertices, edges present in one
  direction only, sources with no out-edges, a hub wider than the scalar
  step;
* frontier widths that cross ``SCALAR_FRONTIER`` in both directions inside
  one traversal, so both level steps and both hand-overs run;
* adversarial component shapes, each equal to the reference and finished in
  ``<= ceil(log2 n) + 2`` hook rounds (``TraversalCounters.hook_rounds``);
* the BFS work pin: no ``_gather_targets`` call on a ring, exactly one per
  wide level on a star.
"""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.graph.backend import get_backend, numpy_available

pytestmark = pytest.mark.skipif(not numpy_available(), reason="the kernels are numpy's")

if numpy_available():
    from repro.graph.backend import numpy_backend
    from repro.graph.backend.numpy_backend import SCALAR_FRONTIER, TraversalCounters


def _csr(n: int, edges: list[tuple[int, int]]) -> CSRGraph:
    """A snapshot straight from a *directed* edge list: rows keep the list's
    order, so self-loops and parallel edges survive as written."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
    offsets = array("q", [0])
    targets = array("q")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return CSRGraph(offsets, targets, list(range(n)))


def _symmetric(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return edges + [(v, u) for u, v in edges]


def _assert_traversals_equal(csr: CSRGraph, source: int, depths=(None,)) -> None:
    python, numpy = get_backend("python"), get_backend("numpy")
    for max_depth in depths:
        assert numpy.bfs_distances(csr, source, max_depth) == python.bfs_distances(
            csr, source, max_depth
        ), f"distances, max_depth={max_depth}"
    assert numpy.bfs_order(csr, source) == python.bfs_order(csr, source)
    assert numpy.bfs_parents(csr, source) == python.bfs_parents(csr, source)


def _hook_rounds(csr: CSRGraph) -> tuple[list[int], int]:
    before = TraversalCounters.hook_rounds
    labels = get_backend("numpy").connected_components(csr)
    return labels, TraversalCounters.hook_rounds - before


@pytest.fixture
def gathers(monkeypatch):
    """Frontier sizes of every ``_gather_targets`` call from now on."""
    calls: list[int] = []
    gather = numpy_backend._gather_targets

    def spy(offsets, targets, frontier):
        calls.append(len(frontier))
        return gather(offsets, targets, frontier)

    monkeypatch.setattr(numpy_backend, "_gather_targets", spy)
    return calls


# --------------------------------------------------------------------------- #
# (a) generated directed graphs
# --------------------------------------------------------------------------- #
@st.composite
def directed_graphs(draw):
    """Directed graphs (an edge is present in the direction drawn, the other
    only if drawn too) with self-loops, parallel edges, isolated vertices and
    sinks; optionally a path (many narrow levels) and a hub whose fan-out is
    wider than the scalar step.  Sources are drawn from every vertex, sinks
    and isolated ones included."""
    n = draw(st.integers(1, 160))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges += [(v, v + 1) for v in range(draw(st.integers(0, n)) - 1)]
    if n > SCALAR_FRONTIER + 8 and draw(st.booleans()):
        hub = draw(vertex)
        leaves = draw(st.lists(vertex, min_size=SCALAR_FRONTIER + 1, max_size=n, unique=True))
        edges += [(hub, leaf) for leaf in leaves]
        if draw(st.booleans()):
            edges += [(leaf, (leaf * 7 + 1) % n) for leaf in leaves]
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    sources = draw(st.lists(vertex, min_size=1, max_size=4, unique=True))
    depth = draw(st.integers(2, 6))
    return _csr(n, edges), sources, depth


@settings(max_examples=60, deadline=None)
@given(directed_graphs())
def test_property_numpy_equals_python_on_directed_graphs(case):
    csr, sources, depth = case
    python, numpy = get_backend("python"), get_backend("numpy")
    assert numpy.connected_components(csr) == python.connected_components(csr)
    for source in sources:
        _assert_traversals_equal(csr, source, depths=(None, 0, 1, depth))


def test_components_read_no_symmetrised_view(monkeypatch):
    """The hook-and-jump kernel works off the directed edge list: nothing
    symmetrises, sorts or caches an undirected CSR on its behalf."""
    monkeypatch.setattr(
        numpy_backend, "_undirected_csr", lambda csr: pytest.fail("symmetrised the snapshot")
    )
    monkeypatch.setattr(
        numpy_backend.np, "unique", lambda *args, **kwargs: pytest.fail("np.unique ran")
    )
    csr = _csr(7, [(0, 1), (2, 1), (3, 3), (5, 4), (4, 5)])
    assert get_backend("numpy").connected_components(csr) == [0, 0, 0, 1, 2, 2, 3]
    assert not {"np_undirected", "und_csr"} & set(csr._backend_cache)


# --------------------------------------------------------------------------- #
# (b) frontiers that cross the scalar / wide boundary both ways
# --------------------------------------------------------------------------- #
def _path_star_path(leaves: int = 200, arm: int = 10) -> tuple[CSRGraph, int]:
    """path -> hub -> ``leaves`` leaves -> one tail vertex -> path."""
    hub, first_leaf = arm, arm + 1
    tail = first_leaf + leaves
    n = tail + arm + 1
    edges = [(v, v + 1) for v in range(arm)]
    edges += [(hub, first_leaf + i) for i in range(leaves)]
    edges += [(first_leaf + i, tail) for i in range(leaves)]
    edges += [(v, v + 1) for v in range(tail, n - 1)]
    return _csr(n, _symmetric(edges)), 0


def _barbell(clique: int = 80, bridge: int = 12) -> tuple[CSRGraph, int]:
    """Two ``clique``-cliques joined by a ``bridge``-vertex path."""
    left = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    start = clique + bridge
    right = [(u, v) for u in range(start, start + clique) for v in range(u + 1, start + clique)]
    path = [(v, v + 1) for v in range(clique - 1, start)]
    return _csr(start + clique, _symmetric(left + path + right)), 0


@pytest.mark.parametrize(
    "build, wide_levels",
    [(_path_star_path, [200]), (_barbell, [79, 79])],
    ids=["path-star-path", "barbell"],
)
def test_both_level_steps_and_both_handovers_run(build, wide_levels, gathers):
    csr, source = build()
    python, numpy = get_backend("python"), get_backend("numpy")
    assert numpy.bfs_distances(csr, source) == python.bfs_distances(csr, source)
    # narrow -> wide -> narrow (-> wide): the wide step ran exactly on the
    # levels wider than the scalar step, the scalar loop on all the others
    assert gathers == wide_levels and min(wide_levels) > SCALAR_FRONTIER
    del gathers[:]
    assert numpy.bfs_order(csr, source) == python.bfs_order(csr, source)
    assert numpy.bfs_parents(csr, source) == python.bfs_parents(csr, source)
    assert gathers == wide_levels * 2
    for start in (csr.n - 1, csr.n // 2):
        _assert_traversals_equal(csr, start, depths=(None, 3, 12))


def test_a_frontier_of_exactly_the_scalar_width_stays_scalar(gathers):
    leaves = SCALAR_FRONTIER
    csr = _csr(leaves + 2, _symmetric([(0, 1 + i) for i in range(leaves)] + [(1, leaves + 1)]))
    _assert_traversals_equal(csr, 0)
    assert gathers == []
    wider = _csr(leaves + 3, _symmetric([(0, 1 + i) for i in range(leaves + 1)] + [(1, leaves + 2)]))
    _assert_traversals_equal(wider, 0)
    assert gathers == [leaves + 1] * 3


# --------------------------------------------------------------------------- #
# (c) adversarial component shapes: equal to the reference, few hook rounds
# --------------------------------------------------------------------------- #
def _bit_reversed(bits: int) -> list[int]:
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]


def _path_over(ids: list[int]) -> list[tuple[int, int]]:
    return list(zip(ids, ids[1:]))


def _shuffled(n: int, seed: int) -> list[int]:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return ids


SHAPES = {
    "path-ascending": (1024, _path_over(list(range(1024)))),
    "path-descending": (1024, _path_over(list(range(1023, -1, -1)))),
    "path-random": (1500, _path_over(_shuffled(1500, 3))),
    "path-bit-reversed": (1024, _path_over(_bit_reversed(10))),
    "path-interleaved": (1001, _path_over([x for i in range(500) for x in (i, 501 + i)] + [500])),
    "star-centre-largest": (900, [(899, leaf) for leaf in range(899)]),
    "star-centre-smallest": (900, [(leaf, 0) for leaf in range(1, 900)]),
    "comb": (1200, _path_over(list(range(600))) + [(i, 600 + i) for i in range(600)]),
    "comb-teeth-first": (1200, _path_over(list(range(600, 1200))) + [(600 + i, i) for i in range(600)]),
    "binary-tree": (2047, [((child - 1) // 2, child) for child in range(1, 2047)]),
    "binary-tree-reversed": (2047, [(2046 - (child - 1) // 2, 2046 - child) for child in range(1, 2047)]),
    "two-vertex-components": (4000, [(i, i + 2000) for i in range(2000)]),
    "ring-with-self-loops": (512, _path_over(list(range(512)) + [0]) + [(v, v) for v in range(512)]),
    "random-forest": (
        3000,
        [(random.Random(v).randrange(v), v) for v in range(1, 3000) if v % 7],
    ),
    "empty": (0, []),
    "single": (1, []),
    "single-self-loop": (1, [(0, 0)]),
    "no-edges": (50, []),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("both_directions", [False, True], ids=["one-way", "symmetric"])
def test_component_shapes_equal_the_reference_in_few_hook_rounds(name, both_directions):
    n, edges = SHAPES[name]
    csr = _csr(n, _symmetric(edges) if both_directions else edges)
    labels, rounds = _hook_rounds(csr)
    assert labels == get_backend("python").connected_components(csr)
    assert rounds <= (math.ceil(math.log2(n)) if n > 1 else 0) + 2, rounds
    if not edges or all(u == v for u, v in edges):
        assert rounds == 0


def test_hook_rounds_do_not_follow_the_diameter():
    """A 20 000-vertex ring (eccentricity 10 000) is two rounds, as a
    20 000-leaf star is: the count follows the id layout, not the depth."""
    n = 20_000
    ring = _csr(n, _symmetric(_path_over(list(range(n)) + [0])))
    labels, rounds = _hook_rounds(ring)
    assert labels == [0] * n and rounds <= 2


# --------------------------------------------------------------------------- #
# (d) the BFS work pin
# --------------------------------------------------------------------------- #
def test_ring_bfs_never_gathers_and_star_bfs_gathers_once_per_wide_level(gathers):
    n = 4000
    python, numpy = get_backend("python"), get_backend("numpy")
    ring = _csr(n, _symmetric(_path_over(list(range(n)) + [0])))
    assert numpy.bfs_distances(ring, 0) == python.bfs_distances(ring, 0)
    assert max(numpy.bfs_distances(ring, 0)) == n // 2
    assert gathers == []  # 2 000 levels, not one array call among them

    star = _csr(n + 1, _symmetric([(0, leaf) for leaf in range(1, n + 1)]))
    assert numpy.bfs_distances(star, 0) == python.bfs_distances(star, 0)
    assert gathers == [n]  # the leaf level; the centre's own step is scalar
    del gathers[:]
    assert numpy.bfs_distances(star, 5) == python.bfs_distances(star, 5)
    assert gathers == [n - 1]  # leaf -> centre -> the other leaves, gathered once
    del gathers[:]
    assert numpy.bfs_distances(star, 0, max_depth=1) == python.bfs_distances(star, 0, max_depth=1)
    assert gathers == []  # the depth limit stops before the wide level is expanded
