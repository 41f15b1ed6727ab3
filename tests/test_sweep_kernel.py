"""The numpy backend's block-wise source sweep against things outside it.

``NumpyBackend.sweep`` grows up to 64 BFS trees at once (one bit lane per
source) and derives each Brandes dependency vector edge-centrically from its
distance row.  Three independent witnesses pin it:

* the python reference backend, on generated graphs — trees exact, deltas
  within the backends' 1e-9 contract — together with *block-composition
  invariance*: a source's products are bitwise what a block of one returns,
  whichever block and lane it rode in;
* literal digests of numpy ``betweenness`` / ``closeness`` (their registry
  runners) on two bundled datasets, **computed at the parent commit** (the
  per-source kernel this one replaced): same floats as before, not merely
  close ones;
* a clock-free work pin: all-source closeness issues one gather per block
  per level, not one per source per level.
"""

from __future__ import annotations

import hashlib
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.graph.backend import get_backend, numpy_available

pytestmark = pytest.mark.skipif(not numpy_available(), reason="the block kernel is numpy's")

#: straddle the 64-lane word: one lane, one short of a word, exactly one,
#: one over, and two words plus a remainder
SOURCE_COUNTS = (1, 63, 64, 65, 130)


def _csr(n: int, edges: list[tuple[int, int]]) -> CSRGraph:
    """A snapshot straight from an edge list: rows keep the list's order, so
    self-loops and parallel edges survive as written."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
    offsets = array("q", [0])
    targets = array("q")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return CSRGraph(offsets, targets, list(range(n)))


@st.composite
def graphs_and_sources(draw):
    """Directed or symmetric graphs with isolated vertices, several
    components, self-loops, parallel edges and a long path, plus a source
    list in arbitrary order (sources repeat once it outgrows ``n``)."""
    n = draw(st.integers(1, 140))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges += [(v, v + 1) for v in range(draw(st.integers(0, n)) - 1)]  # the path
    if draw(st.booleans()):
        edges += [(v, u) for u, v in edges]
    count = draw(st.sampled_from(SOURCE_COUNTS))
    sources = draw(st.lists(vertex, min_size=count, max_size=count))
    return _csr(n, edges), sources


@settings(max_examples=30, deadline=None)
@given(graphs_and_sources())
def test_block_sweep_matches_the_reference_and_is_block_invariant(case):
    csr, sources = case
    python, numpy = get_backend("python"), get_backend("numpy")
    brandes = set(sources[::2])
    blocks = list(numpy.sweep(csr, sources, brandes))
    assert len(blocks) == len(sources)
    singles: dict[int, tuple] = {}
    for source, (tree, delta), (want_tree, want_delta) in zip(
        sources, blocks, python.sweep(csr, sources, brandes)
    ):
        assert numpy.tree_distances(tree) == want_tree
        assert numpy.tree_stats(tree) == python.tree_stats(want_tree)
        assert (delta is None) == (source not in brandes)
        if delta is not None:
            worst = max(abs(a - b) for a, b in zip(numpy.tree_delta(delta), want_delta))
            assert worst <= 1e-9
        # a block of one: same ints, same float bits
        if source not in singles:
            singles[source] = next(numpy.sweep(csr, [source], brandes))
        alone_tree, alone_delta = singles[source]
        assert tree.tolist() == alone_tree.tolist()
        if delta is not None:
            assert delta.tobytes() == alone_delta.tobytes()


@pytest.mark.parametrize("n", [127, 128, 300])
def test_distance_rows_stay_exact_where_the_narrow_int_changes_width(n):
    """The distance block's dtype is the narrowest signed int that holds
    every depth up to ``n``; a path as long as the graph counts that far
    exactly at the int8 / int16 boundary."""
    csr = _csr(n, [(v, v + 1) for v in range(n - 1)])
    python, numpy = get_backend("python"), get_backend("numpy")
    for source in (0, n // 2):
        tree, delta = next(numpy.sweep(csr, [source], {source}))
        want_tree, want_delta = next(python.sweep(csr, [source], {source}))
        assert numpy.tree_distances(tree) == want_tree
        assert numpy.tree_delta(delta) == want_delta  # one path each: exact


# --------------------------------------------------------------------------- #
# same floats as the per-source kernel this one replaced
# --------------------------------------------------------------------------- #
def _digest(values: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]


def _dblp():
    from repro.datasets import COAUTHOR_QUERY, generate_dblp

    return generate_dblp(num_authors=300, num_publications=360, seed=1), COAUTHOR_QUERY


def _imdb():
    from repro.datasets import COACTOR_QUERY, generate_imdb

    return generate_imdb(seed=2), COACTOR_QUERY


#: sha256[:16] over the little-endian float64 bytes, recorded at the parent
#: commit (e4be655) from ``NumpyBackend._brandes_arrays`` and the per-source
#: closeness loop: (full betweenness, sample_size=32 seed=5, closeness)
PARENT_DIGESTS = {
    "dblp": (_dblp, 300, 3090, ("e28097fd8879df10", "08c92706ff2ad7cf", "9a953896db151469")),
    "imdb": (_imdb, 400, 5481, ("d7ad85439d256ab0", "1c3cd3f2cdb59ada", "371c97a9acb45a8c")),
}


@pytest.mark.parametrize("dataset", sorted(PARENT_DIGESTS))
def test_numpy_centrality_floats_equal_the_parent_commits(dataset):
    from repro.session import PLAN_ALGORITHMS, GraphSession

    build, n, m, want = PARENT_DIGESTS[dataset]
    database, query = build()
    csr = GraphSession(database).graph(query).snapshot()
    assert (csr.n, csr.num_edges) == (n, m)
    numpy = get_backend("numpy")

    def digest(name, **params):
        values = PLAN_ALGORITHMS[name].kernel(csr, numpy, params)
        return _digest(list(values.values()))  # decoded in dense-index order

    got = (
        digest("betweenness", normalized=True, sample_size=None, seed=0),
        digest("betweenness", normalized=True, sample_size=32, seed=5),
        digest("closeness"),
    )
    assert got == want


# --------------------------------------------------------------------------- #
# work, not wall clock
# --------------------------------------------------------------------------- #
def test_all_source_closeness_gathers_once_per_block_per_level(monkeypatch):
    from repro.graph.backend import numpy_backend
    from repro.session import PLAN_ALGORITHMS

    # 20 layers of 10 vertices, consecutive layers fully connected both ways
    layers, width = 20, 10
    n = layers * width
    edges = [
        (layer * width + i, (layer + 1) * width + j)
        for layer in range(layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    csr = _csr(n, edges + [(v, u) for u, v in edges])
    python, numpy = get_backend("python"), get_backend("numpy")
    depth = max(python.tree_stats(tree)[2] for tree, _ in python.sweep(csr, range(n)))
    assert (n, depth) == (200, layers - 1)

    gathers = []
    real = numpy_backend._gather
    monkeypatch.setattr(
        numpy_backend, "_gather", lambda *args: gathers.append(1) or real(*args)
    )
    closeness = PLAN_ALGORITHMS["closeness"].kernel
    assert closeness(csr, numpy, {}) == closeness(csr, python, {})
    blocks = -(-n // 64)
    assert 0 < len(gathers) <= blocks * (depth + 1)  # 80; per source it was n * depth = 3800
