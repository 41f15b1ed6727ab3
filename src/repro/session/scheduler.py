"""Plan-level scheduling: one worker pool, one snapshot file per plan.

An :class:`~repro.session.AnalysisPlan` at ``parallelism > 1`` runs its whole
batch over one worker pool and one persisted snapshot file, instead of
forking a pool (and, store-less, writing a tempfile copy of the snapshot)
per superstep-routed request.  This module holds the worker-side machinery
the plan executor (:mod:`repro.session.compiler`) drives:

* :class:`PlanWorkerFactory` / :class:`PlanWorker` — one *generic* worker per
  partition, forked once per plan, mmap-loading the plan's single snapshot
  file.  A worker serves four kinds of work over the run's lifetime:

  - ``install_program`` + the standard superstep protocol — the
    vertex-centric coordinator installs each superstep-routed request's
    program (shipped by value through the pipe) on the same processes, so a
    plan with three superstep requests forks one pool, not three;
  - ``run_chunk`` — one partition's share of a chunk-parallel direct kernel
    (see :data:`CHUNK_RUNNERS`): the worker's ``(lo, hi)`` vertex range,
    whose integer partial is exact under any regrouping;
  - ``run_sweep`` — one contiguous slice of the plan's fused source sweep.
    Merge determinism mirrors the superstep executor's contract: integer
    stats are exact, float products are shipped as *ordered per-source
    contribution lists* and re-summed by the master with one flat
    left-to-right pass in global source order — exactly the serial kernels'
    accumulation order, so floats are bit-identical, not merely close;
  - ``run_task`` — a whole-graph serial kernel executed on a single worker,
    so independent kernel-only requests run *concurrently* across the worker
    budget instead of sequentially on the master.

The master half (routing, pool lifecycle, merges) lives in
:mod:`repro.session.compiler`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.graph.backend import get_backend
from repro.graph.kernel import CSRGraph
from repro.vertexcentric.parallel import ParallelSuperstepExecutor, VertexChunkWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend


# --------------------------------------------------------------------------- #
# chunk runners: (csr, backend, payload) -> partial result, executed inside a
# worker over the shared mmap'd snapshot
# --------------------------------------------------------------------------- #
def _chunk_triangles(csr: CSRGraph, backend: "KernelBackend", payload: Any) -> int:
    lo, hi = payload
    return backend.count_triangles(csr, lo, hi)


#: chunk task name -> worker-side runner
CHUNK_RUNNERS: dict[str, Callable[[CSRGraph, "KernelBackend", Any], Any]] = {
    "triangles": _chunk_triangles,
}


class PlanWorker:
    """One partition's generic worker for a scheduled plan (see module doc)."""

    def __init__(self, csr: CSRGraph, lo: int, hi: int, backend: "KernelBackend") -> None:
        self.csr = csr
        self.lo = lo
        self.hi = hi
        self.backend = backend
        self._program_worker: VertexChunkWorker | None = None

    # -- superstep protocol (pool reuse across programs) ----------------- #
    def install_program(self, executor) -> None:
        """Adopt a new vertex-centric program: fresh per-program state, same
        process, same mmap'd snapshot."""
        self._program_worker = VertexChunkWorker(
            self.csr, executor, self.lo, self.hi, backend=self.backend
        )

    def run_superstep(self, payload):
        if self._program_worker is None:
            raise RuntimeError("no superstep program installed on this worker")
        return self._program_worker.run_superstep(payload)

    def collect(self):  # pragma: no cover - master merges every superstep
        return None

    # -- direct-kernel work ---------------------------------------------- #
    def run_chunk(self, payload):
        """One partition's share of a chunk-parallel kernel."""
        name, argument = payload
        return CHUNK_RUNNERS[name](self.csr, self.backend, argument)

    def run_sweep(self, payload):
        """One slice of the plan compiler's shared source sweep.

        ``payload`` is a list of ``(source, want_delta, want_dists)`` tuples;
        for each source the worker grows one traversal — a Brandes traversal
        when a betweenness demand needs the dependency vector, a plain BFS
        tree otherwise — and ships ``(stats, delta|None, dists|None)`` back.
        Stats are integer-exact and deltas are ordered per-source contribution
        lists, so the master's partition-order merge keeps every consuming
        algorithm bit-identical to its serial kernel (see
        :mod:`repro.session.compiler`).
        """
        products = []
        for source, want_delta, want_dists in payload:
            if want_delta:
                tree, delta = self.backend.brandes_tree(self.csr, source)
                delta_list = self.backend.tree_delta(delta)
            else:
                tree = self.backend.bfs_tree(self.csr, source)
                delta_list = None
            stats = self.backend.tree_stats(tree)
            dists = self.backend.tree_distances(tree) if want_dists else None
            products.append((stats, delta_list, dists))
        return products

    def run_task(self, payload):
        """A whole-graph serial kernel on this worker.

        Returns ``("ok", seconds, values)`` with worker-measured execution
        time, or ``("error", exc)`` for caller-mistake exceptions
        (:class:`UsageError` / :class:`RepresentationError`) — the master
        re-raises them as-is, so a bad request fails with the same one-line
        message type whether it ran inline or on a worker.
        """
        # local import: plan.py imports this module at load time
        from repro.exceptions import RepresentationError, UsageError
        from repro.session.plan import PLAN_ALGORITHMS

        name, params = payload
        started = time.perf_counter()
        try:
            values = PLAN_ALGORITHMS[name].kernel(self.csr, self.backend, params)
        except (UsageError, RepresentationError) as exc:
            return ("error", exc)
        return ("ok", time.perf_counter() - started, values)

    # -- observability ---------------------------------------------------- #
    def memory_stats(self, _payload=None) -> dict:
        """This worker's snapshot footprint — the out-of-core assertion data.

        ``mapped_bytes`` is the snapshot file bytes this process keeps
        memory-mapped (one shard's segment file under sharding, the whole
        snapshot otherwise); ``peak_rss_bytes`` the process-lifetime peak
        resident set size.
        """
        from repro.utils.memstats import mapped_snapshot_bytes, peak_rss_bytes

        return {
            "lo": self.lo,
            "hi": self.hi,
            "mapped_bytes": mapped_snapshot_bytes(self.csr),
            "peak_rss_bytes": peak_rss_bytes(),
        }


class SharedPoolManager:
    """One warm :class:`PlanWorker` pool shared across plans (and across
    service request threads) of a ``warm_pool=True`` session.

    A pool's worker processes are stateful (installed superstep programs,
    pipe protocol), so at most one plan may drive a pool at a time:
    :meth:`acquire` blocks until the pool is free, then hands out the cached
    executor when the *identity key* — snapshot path, snapshot content hash,
    parallelism, worker geometry, backend — still matches, re-forking only on
    a mismatch (e.g. the dataset was mutated, so the content hash moved) or
    when a dead worker made the previous plan close the pool.
    The returned ``release`` merely frees the lease; worker processes stay
    alive, keeping their mmap of the snapshot file warm for the next plan.

    ``os.replace`` on the snapshot file keeps the old inode alive for
    existing mmaps, which is exactly why the content hash must be part of the
    key: workers holding the *old* mapping would silently serve stale arrays
    after a store rewrite.
    """

    def __init__(self) -> None:
        self._busy = threading.Lock()
        self._pool: ParallelSuperstepExecutor | None = None
        self._key: tuple | None = None
        #: observability: pools forked vs leases served from the warm pool
        self.counters = {"forks": 0, "reuses": 0, "leases": 0}

    def acquire(
        self,
        parallelism: int,
        num_items: int,
        snapshot_path: str,
        content_hash: bytes,
        backend_name: str | None,
        *,
        partitions: "list[tuple[int, int]] | None" = None,
        sharded: bool = False,
    ):
        """Blocks until the warm pool is free; returns ``(pool, release)``.

        ``partitions``/``sharded`` carry the out-of-core geometry: workers of
        a sharded pool mmap one segment file each, so the partition bounds
        (which must equal the manifest's shard ranges) are part of the
        identity key — a plan that changes the shard geometry re-forks.
        """
        self._busy.acquire()
        key = (
            str(snapshot_path),
            content_hash,
            parallelism,
            num_items,
            backend_name,
            tuple(partitions) if partitions is not None else None,
            sharded,
        )
        try:
            self.counters["leases"] += 1
            # a pool whose worker died closed itself mid-plan: replace it
            if self._pool is None or self._key != key or not self._pool.running:
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
                self._pool = ParallelSuperstepExecutor(
                    parallelism,
                    num_items,
                    PlanWorkerFactory(snapshot_path, backend_name, sharded=sharded),
                    partitions=partitions,
                ).start()
                self._key = key
                self.counters["forks"] += 1
            else:
                self.counters["reuses"] += 1
        except BaseException:
            self._busy.release()
            raise
        return self._pool, self._release

    def _release(self) -> None:
        self._busy.release()

    def close(self) -> None:
        """Shut the warm pool down (blocks until any active lease returns)."""
        with self._busy:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
                self._key = None


class PlanWorkerFactory:
    """Builds a :class:`PlanWorker` inside a forked worker process.

    Loads the plan's snapshot file with ``mmap=True`` so all workers (and the
    master, when its snapshot came off the store) share one physical copy of
    the arrays, and re-resolves the session's backend by name so workers run
    the same kernels regardless of their inherited environment.

    With ``sharded=True`` the path is a shard *manifest* and each worker maps
    only its own partition's segment file (the partition bounds must equal
    the manifest's shard ranges) — the out-of-core contract: no worker
    process ever maps the full graph.
    """

    def __init__(
        self, snapshot_path, backend: str | None = None, *, sharded: bool = False
    ) -> None:
        self.snapshot_path = snapshot_path
        self.backend = backend
        self.sharded = sharded

    def __call__(self, lo: int, hi: int) -> PlanWorker:
        if self.sharded:
            from repro.graph.shard_store import load_shard

            csr: CSRGraph = load_shard(self.snapshot_path, (lo, hi), mmap=True)
        else:
            csr = CSRGraph.load(self.snapshot_path, mmap=True, verify=False)
        return PlanWorker(csr, lo, hi, get_backend(self.backend))
