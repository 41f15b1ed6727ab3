"""The numpy PageRank kernels against things outside them.

``NumpyBackend.pagerank`` and ``NumpyBackend.pagerank_correction`` push
shares over the edge arrays; three witnesses pin them:

* literal digests of their floats **computed at the parent commit** — cold
  power iterations on generated graphs × damping / tolerance settings, and
  every PageRank answer of the ring's mutate schedule (maintained through
  the correction series): same floats as before, not merely close ones;
* the stop decision (:func:`numpy_backend._below_tolerance`) on constructed
  vectors whose pairwise and left-to-right sums straddle the tolerance: it
  answers what the left-to-right sum answers, and reads ``tolist()`` only
  when the pairwise sum's error bound cannot decide;
* clock-free push-kind pins (``TraversalCounters.dense_pushes`` /
  ``sparse_pushes``): a local delta pushes sparsely, a residual on every
  vertex densely, a wide random delta both.
"""

from __future__ import annotations

import hashlib
import random
import struct
from array import array

import pytest

from repro.graph import CSRGraph, ExpandedGraph
from repro.graph.backend import get_backend
from repro.graph.delta import JournaledGraph
from repro.relational.database import Database
from repro.session import GraphSession

from tests.test_incremental import BENCH_RING, _bench_schedule, _ring, _ring_plan

np = pytest.importorskip("numpy")


def _digest(values: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]


def _csr(n: int, edges: list[tuple[int, int]]) -> CSRGraph:
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
    offsets, targets = array("q", [0]), array("q")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return CSRGraph(offsets, targets, list(range(n)))


def _dangling(n: int = 400, seed: int = 3) -> CSRGraph:
    """A random digraph where every fifth vertex has no out-edge."""
    rng = random.Random(seed)
    edges = [(u, rng.randrange(n)) for u in range(n) if u % 5 for _ in range(rng.randrange(1, 7))]
    return _csr(n, edges)


def _dblp() -> CSRGraph:
    from repro.datasets import COAUTHOR_QUERY, generate_dblp

    database = generate_dblp(num_authors=300, num_publications=360, seed=1)
    return GraphSession(database).graph(COAUTHOR_QUERY).snapshot()


GRAPHS = {
    "ring": lambda: _ring(2000, seed=5).snapshot(),
    "dangling": _dangling,
    "dblp": _dblp,
}

#: (damping, max_iterations, tolerance); the last one runs out of iterations
SETTINGS = ((0.85, 100, 1e-6), (0.85, 500, 1e-10), (0.6, 40, 1e-14))

#: sha256[:16] over the little-endian float64 bytes of ``pagerank`` per
#: ``SETTINGS`` entry, recorded at the parent commit (0478952)
PARENT_DIGESTS = {
    "ring": ("96a97da517f8d781", "e9ac680698dae11b", "674b20e48b34d5d1"),
    "dangling": ("612eb785a001ac66", "539eaa72e0ca634c", "1ae38aafe20a38b8"),
    "dblp": ("ec17737c0e5dc165", "afb16348b51c0c3f", "da53b7afda9c2d2a"),
}

#: one digest per PageRank answer of the ring's mutate schedule (the cold
#: run, then every cycle), recorded at the parent commit (0478952)
PARENT_SCHEDULE_DIGESTS = (
    "1570c376222960aa", "093a18e346e83318", "e81e79a0a2c589ab", "903ddfb351f937a8",
    "03405f5c25e4563f", "4b149d5008a2c895", "d8f3798658f95731", "146eb4cc73040e99",
    "6317c60c0eb84727", "d4f45b030ab029dd",
)


#: seeded residual sizes for ``pagerank_correction`` on the ring: from one
#: vertex (mostly sparse pushes, then dense ones) to every vertex (dense
#: throughout)
RESIDUALS = (1, 40, 400, 2000)

#: one digest per ``RESIDUALS`` entry, recorded at the parent commit (0478952)
PARENT_CORRECTION_DIGESTS = ("6e97ae849e840b99", "e59b1021ce72a5ef", "f57bd08b6e9c3e59", "6cfe0d767d51826a")


def _residual(n: int, size: int, seed: int = 9) -> dict[int, float]:
    rng = random.Random(seed)
    return {v: rng.uniform(-1e-4, 1e-4) for v in rng.sample(range(n), size)}


def _correction_digests() -> tuple[str, ...]:
    csr = GRAPHS["ring"]()
    numpy = get_backend("numpy")
    ranks = numpy.pagerank(csr, 0.85, 500, 1e-10)
    return tuple(
        _digest(numpy.pagerank_correction(csr, ranks, _residual(csr.n, size), 0.85, 500, 1e-10))
        for size in RESIDUALS
    )


def _cold_digests(name: str) -> tuple[str, ...]:
    csr = GRAPHS[name]()
    numpy = get_backend("numpy")
    return tuple(_digest(numpy.pagerank(csr, *setting)) for setting in SETTINGS)


def _schedule_digests() -> tuple[str, ...]:
    graph = JournaledGraph(_ring(BENCH_RING, seed=11))
    handle = GraphSession(Database("digests"), backend="numpy").wrap(graph)
    reports = [_ring_plan(handle).run()]
    reports += [report for _, report in _bench_schedule(graph, handle)]
    return tuple(_digest(list(report["pagerank"].values.values())) for report in reports)


@pytest.mark.parametrize("name", sorted(PARENT_DIGESTS))
def test_cold_pagerank_floats_equal_the_parent_commits(name):
    assert _cold_digests(name) == PARENT_DIGESTS[name]


def test_pagerank_correction_floats_equal_the_parent_commits():
    assert _correction_digests() == PARENT_CORRECTION_DIGESTS


def test_maintained_pagerank_floats_equal_the_parent_commits():
    assert _schedule_digests() == PARENT_SCHEDULE_DIGESTS


# --------------------------------------------------------------------------- #
# the stop decision: the left-to-right sum's answer, read only when needed
# --------------------------------------------------------------------------- #
class _Counted(np.ndarray):
    """An array that counts its ``tolist()`` reads."""

    reads = 0

    def tolist(self):
        type(self).reads += 1
        return super().tolist()


def _counted(values) -> _Counted:
    _Counted.reads = 0
    return np.asarray(values, dtype=np.float64).view(_Counted)


def test_the_stop_decision_is_the_left_to_right_sums_where_the_sums_straddle():
    from repro.graph.backend.numpy_backend import _below_tolerance

    # 1.0 then 1023 half-ulps: a plain left-to-right sum rounds every one
    # away (1.0), a compensated one (Python >= 3.12) keeps them all
    # (1 + 64·2⁻⁴⁹), numpy's pairwise sum keeps most (1 + 63·2⁻⁴⁹)
    values = [1.0] + [2.0**-53] * 1023
    moved = _counted(values)
    left_to_right, pairwise = sum(values), float(np.sum(values))
    assert left_to_right != pairwise
    tolerance = max(left_to_right, pairwise)
    assert (left_to_right < tolerance) != (pairwise < tolerance)
    assert _below_tolerance(moved, tolerance) is (left_to_right < tolerance)
    assert _Counted.reads == 1


@pytest.mark.parametrize(
    "value, tolerance, below",
    [(1e-3, 1e-10, False), (1e-16, 1e-6, True), (0.0, 1e-10, True)],
)
def test_the_stop_decision_reads_no_list_when_the_bound_decides(value, tolerance, below):
    from repro.graph.backend.numpy_backend import _below_tolerance

    moved = _counted([value] * 40_000)
    assert _below_tolerance(moved, tolerance) is below
    assert _Counted.reads == 0


# --------------------------------------------------------------------------- #
# which push each correction term takes — counted, not timed
# --------------------------------------------------------------------------- #
def _pushes(run) -> tuple[int, int]:
    """(dense, sparse) correction pushes made by ``run()``."""
    from repro.graph.backend.numpy_backend import TraversalCounters

    dense, sparse = TraversalCounters.dense_pushes, TraversalCounters.sparse_pushes
    run()
    return TraversalCounters.dense_pushes - dense, TraversalCounters.sparse_pushes - sparse


def _refresh_pushes(graph: JournaledGraph, mutate) -> tuple[int, int]:
    handle = GraphSession(Database("pushes"), backend="numpy").wrap(graph)
    _ring_plan(handle).run()
    mutate(graph)

    def refresh():
        assert "pagerank" in handle.refresh().maintained

    return _pushes(refresh)


def test_a_one_chord_delta_on_a_ring_pushes_sparsely_only():
    n = 2000
    graph = JournaledGraph(ExpandedGraph())
    for v in range(n):
        graph.add_edge(v, (v + 1) % n)
        graph.add_edge((v + 1) % n, v)

    def chord(graph):
        graph.add_edge(10, 30)
        graph.add_edge(30, 10)

    dense, sparse = _refresh_pushes(graph, chord)
    assert dense == 0 and sparse > 0


def test_a_residual_on_every_vertex_pushes_densely_only():
    csr = GRAPHS["ring"]()
    numpy = get_backend("numpy")
    ranks = numpy.pagerank(csr, 0.85, 500, 1e-10)
    residual = _residual(csr.n, csr.n)
    dense, sparse = _pushes(lambda: numpy.pagerank_correction(csr, ranks, residual, 0.85, 500, 1e-10))
    assert dense > 0 and sparse == 0


def test_a_wide_random_delta_pushes_sparsely_then_densely():
    n = 2000

    def chords(graph):
        rng = random.Random(4)
        for _ in range(10):
            u, v = rng.randrange(n), rng.randrange(n)
            graph.add_edge(u, v)
            graph.add_edge(v, u)

    dense, sparse = _refresh_pushes(JournaledGraph(_ring(n, seed=5)), chords)
    assert dense > 0 and sparse > 0
