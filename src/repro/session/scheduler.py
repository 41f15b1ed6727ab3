"""Plan-level scheduling: one worker pool, one snapshot file per plan.

An :class:`~repro.session.AnalysisPlan` at ``parallelism > 1`` compiles the
same DAG as at ``parallelism == 1``; the two nodes with an exact slice form
are then handed to one worker pool over one persisted snapshot file.  This
module holds the worker-side machinery the plan executor
(:mod:`repro.session.compiler`) drives:

* :class:`PlanWorker` — one *generic* worker per partition, forked once per
  plan.  It is the vertex-centric framework's
  :class:`~repro.vertexcentric.parallel.SnapshotWorker` (built by the same
  ``factory``, which mmap-loads the plan's single snapshot file) plus one
  method per sliced node, each invoked by name through the pool's one wire
  command:

  - ``run_sweep`` — one slice of the plan's fused source sweep, through
    the backend's ``sweep_products``, the same per-source product loop the
    coordinator runs for an inline sweep and a runner for its one demand.  Products are
    independent per source: integer stats are exact, and float products
    are shipped as *per-source contribution vectors* (the backend's native
    form) that the master re-sums in each request's own global source
    order — exactly the serial kernels' accumulation order, so floats are
    bit-identical, not merely close;
  - ``triangle_counts`` — the ``triangle-counts`` derive node restricted to
    the worker's ``(lo, hi)`` vertex range: every triangle is attributed to
    its smallest vertex, so the integer vectors of all partitions add up to
    the whole-graph vector exactly.

* :class:`SharedPoolManager` — the warm pool a ``warm_pool=True`` session
  leases to one plan at a time.

The master half (placement, pool lifecycle, merges) lives in
:mod:`repro.session.compiler`.  This module and the pool it drives
(:mod:`repro.vertexcentric.parallel`, which imports ``multiprocessing``) are
imported only where a pool starts — :meth:`GraphSession.acquire_pool
<repro.session.session.GraphSession.acquire_pool>` and a ``warm_pool``
session — so a plan that needs no pool loads neither.
"""

from __future__ import annotations

import threading

from repro.vertexcentric.parallel import ParallelSuperstepExecutor, SnapshotWorker


class PlanWorker(SnapshotWorker):
    """One partition's generic worker for a scheduled plan (see module doc):
    a snapshot worker plus one method per sliced node."""

    def triangle_counts(self, bounds):
        """This vertex range's share of the ``triangle-counts`` node: the
        per-vertex vector of the triangles whose smallest vertex lies in it."""
        lo, hi = bounds
        return self.backend.triangles_per_vertex(self.csr, lo, hi)

    def run_sweep(self, payload):
        """One slice of the plan compiler's shared source sweep: this
        worker's ``backend.sweep_products``, shipped back as a list.  Stats are
        integer-exact and deltas are per-source contributions the master
        re-keys by source, so every consuming algorithm stays bit-identical
        to its serial kernel (see :mod:`repro.session.compiler`)."""
        return list(self.backend.sweep_products(self.csr, payload))


class SharedPoolManager:
    """One warm :class:`PlanWorker` pool shared across plans (and across
    service request threads) of a ``warm_pool=True`` session.

    A pool's worker processes talk one pipe protocol, so at most one plan
    may drive a pool at a time: :meth:`acquire` blocks until the pool is
    free, then hands out the cached executor when the *identity key* —
    snapshot path, snapshot content hash, parallelism, item count, backend —
    still matches, re-forking only on a mismatch (e.g. the dataset was
    mutated, so the content hash moved) or when a dead worker made the
    previous plan close the pool.  The returned ``release`` merely frees the lease; worker processes stay
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
    ):
        """Blocks until the warm pool is free; returns ``(pool, release)``."""
        self._busy.acquire()
        key = (str(snapshot_path), content_hash, parallelism, num_items, backend_name)
        try:
            self.counters["leases"] += 1
            # a pool whose worker died closed itself mid-plan: replace it
            if self._pool is None or self._key != key or not self._pool.running:
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
                self._pool = ParallelSuperstepExecutor(
                    parallelism, num_items, PlanWorker.factory(snapshot_path, backend_name)
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
