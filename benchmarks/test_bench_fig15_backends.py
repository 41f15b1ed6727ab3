"""Figure 15 (new) — kernel-backend agreement on the largest synthetic graph.

The SIGMOD 2014 Programming Contest analyses cited in PAPERS.md observe that
top-performing graph-analytics implementations all reduce traversals to flat
array kernels — and, for the all-source closeness query, to many BFS sources
advanced at once.  PR 1 froze the snapshot into flat ``array('q')`` buffers;
this figure pins that the vectorised (NumPy) kernels over those same arrays
agree with the bit-exact pure-Python reference on the two paper benchmark
algorithms that dominate whole-graph analytics — PageRank and Connected
Components — and on the block-wise source sweep (closeness over one 64-source
block, every bit lane in use).

Setup: ``Synthetic_XL``, a condensed graph generated with the Appendix C.1
generator at roughly 4x the edge count of the next-largest synthetic dataset
in the suite (Table 5's N2), snapshotted through C-DUP virtual-layer
expansion.  Each kernel runs on the heap-built snapshot *and* on a zero-copy
``mmap``-loaded snapshot file — the numpy views wrap the mapped pages
directly, so agreement must survive persistence.

Asserted per (algorithm, snapshot) cell: components exactly equal, PageRank
within 1e-9, closeness exactly equal (a pure function of integer tree
stats).  Nothing here reads a clock: how much faster the numpy side is, is
``kernel.numpy.*_s`` against ``kernel.python.*_s`` in ``bench/``.
"""

from __future__ import annotations

import pytest

from repro.algorithms.centrality import closeness_value
from repro.datasets.synthetic import generate_condensed
from repro.graph import CSRGraph
from repro.graph.backend import get_backend, numpy_available
from repro.graph.cdup import CDupGraph

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the backend comparison needs numpy"
)

#: the largest synthetic dataset in the benchmark suite (cf. Synthetic_1 at
#: ~84k and N2 at ~156k directed edges)
SYNTHETIC_XL = dict(num_real=20000, num_virtual=12000, mean_size=7, std_size=2, seed=42)

PAGERANK_ITERATIONS = 30

#: (algorithm, snapshot) cells that ran and agreed
_CELLS: set[tuple[str, str]] = set()


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """{"heap": built snapshot, "mmap": zero-copy load of its saved file}."""
    graph = CDupGraph(generate_condensed(**SYNTHETIC_XL))
    heap = graph.snapshot()
    path = tmp_path_factory.mktemp("fig15") / "synthetic_xl.csr"
    heap.save(path)
    mapped = CSRGraph.load(path, mmap=True)
    assert isinstance(mapped.offsets, memoryview)  # really the mapped file
    return {"heap": heap, "mmap": mapped}


def _block_closeness(backend, csr):
    """Closeness of one 64-source sweep block, shaped like the runner."""
    stats = (backend.tree_stats(tree) for tree, _ in backend.sweep(csr, range(64)))
    return [closeness_value(csr.n, reachable, total) for reachable, total, _ in stats]


KERNELS = {
    "pagerank": lambda backend, csr: backend.pagerank(
        csr, 0.85, PAGERANK_ITERATIONS, 1.0e-9
    ),
    "components": lambda backend, csr: backend.connected_components(csr),
    "closeness": _block_closeness,
}


@pytest.mark.parametrize("storage", ["heap", "mmap"])
@pytest.mark.parametrize("algorithm", sorted(KERNELS))
def test_numpy_backend_speedup(snapshots, storage, algorithm):
    csr = snapshots[storage]
    kernel = KERNELS[algorithm]
    reference = kernel(get_backend("python"), csr)
    result = kernel(get_backend("numpy"), csr)

    if algorithm == "pagerank":
        worst = max(abs(a - b) for a, b in zip(result, reference))
        assert worst <= 1e-9, f"pagerank diverged by {worst}"
    else:
        assert result == reference  # int kernel / pure function of int stats
    _CELLS.add((algorithm, storage))


def test_record_results(snapshots):
    """Every cell of the figure ran and agreed (a failed or deselected cell
    leaves its slot empty)."""
    assert _CELLS == {(algorithm, storage) for algorithm in KERNELS for storage in snapshots}
