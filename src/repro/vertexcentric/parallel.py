"""Worker pools for superstep execution over a shared snapshot file.

The vertex-centric coordinator and the Giraph engine both schedule supersteps
over frozen dense-index arrays, which makes their per-superstep work
embarrassingly parallel *within* a superstep: the dense vertex range is split
into fixed contiguous partitions and each partition's ``compute`` calls run in
a separate worker process.  What is **not** trivially parallel is keeping the
results independent of the partition count — floating-point aggregation and
message delivery are order-sensitive.  This module provides the shared
machinery and its determinism contract:

* **Fixed contiguous partitions.**  ``partition_range(n, parallelism)`` splits
  ``[0, n)`` into ascending contiguous chunks once per run.  Partition ``k``
  always owns the same dense indexes.

* **Persistent workers, fork start method.**  One worker process per
  partition lives for the whole run (created with the ``fork`` start method,
  so engine-side state such as Giraph vertex sets or a standalone run's
  executor is inherited without pickling).  A :class:`SnapshotWorker` does
  not even inherit the graph: its :meth:`~SnapshotWorker.factory` maps the
  run's **snapshot file** read-only inside the fork, so every worker shares
  one physical copy of ``offsets``/``targets`` through the page cache — or,
  under sharding, maps only its own partition's segment file.

* **One wire command.**  A pool moves ``(method, argument)`` messages:
  the worker answers ``getattr(worker, method)(argument)``.  Supersteps,
  program installs, final-value collection and the plan scheduler's node
  slices are all method names (:meth:`ParallelSuperstepExecutor.call` /
  ``broadcast``); the executor only moves bytes and enforces ordering.

* **Deterministic merge.**  Each superstep the master scatters one payload
  per partition and gathers results *in partition order*.  Order-sensitive
  outputs are returned as ordered sequences (per-aggregator contribution
  lists, per-sender message lists) and re-reduced by the master with one flat
  left-to-right pass — ascending dense index, whatever the split.
  Floating-point results are therefore bit-identical across partition
  counts, not merely close.

* **The one-partition case needs no processes.**  :class:`InProcessPool`
  offers the same ``partitions`` / ``call`` surface around a
  :class:`SnapshotWorker` on the caller's stack; it is what
  ``VertexCentric(parallelism=1)`` runs on.
"""

from __future__ import annotations

import functools
import multiprocessing
import signal
import threading
import traceback
from array import array
from typing import Any, Callable, Sequence

from repro.exceptions import VertexCentricError, WorkerDiedError
from repro.graph.backend import get_backend
from repro.graph.kernel import CSRGraph

#: guards the process-global start counter (plans may run concurrently in
#: one process — the graph service runs one per request thread)
_COUNTER_LOCK = threading.Lock()
_THREAD_COUNTERS = threading.local()


def pool_starts_in_thread() -> int:
    """Cumulative successful pool starts *triggered by the current thread*.

    The per-plan ``report.pool_starts`` counter is a delta of this value, so
    plans running concurrently in one process (the graph service) never see
    each other's forks, while hidden per-request pools started anywhere in
    the calling thread's stack are still caught.
    """
    return getattr(_THREAD_COUNTERS, "started", 0)


def partition_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``parts`` contiguous, ascending ``(lo, hi)`` chunks.

    Sizes differ by at most one; with ``n < parts`` the tail chunks are empty
    (``lo == hi``) so partition identities stay stable regardless of size.
    """
    if parts < 1:
        raise VertexCentricError("parallelism must be at least 1")
    base, extra = divmod(n, parts)
    bounds = []
    lo = 0
    for k in range(parts):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# --------------------------------------------------------------------------- #
# numeric message batching (Giraph engine pipe traffic)
# --------------------------------------------------------------------------- #
class MessageChannel:
    """Stateful packer for one direction of one worker pipe.

    A superstep whose messages are all plain floats — every PageRank share —
    is batched into one flat index buffer (``array('i')``, or ``array('q')``
    for graphs beyond 2^31 vertices) plus one ``array('d')`` value buffer
    instead of a list of tuples of boxed Python objects.  Better: numeric
    supersteps usually scatter along the *same* target sequence every
    superstep (the fixed snapshot adjacency), so each side of the pipe keeps
    the last target buffer and, while it repeats, ships **values only** — 8
    bytes per message on the wire.  Mixed or non-numeric supersteps fall back
    to the raw pair list.

    Both endpoints advance their cached state from the packed form itself,
    so a ``pack``-side channel and its ``unpack``-side peer stay in lockstep
    without any extra coordination.  ``float64`` round-trips exactly and
    order is preserved, so delivery is bit-identical either way.
    """

    __slots__ = ("_targets",)

    def __init__(self) -> None:
        self._targets: array | None = None

    def pack(self, pairs: list) -> tuple:
        if pairs and all(type(message) is float for _, message in pairs):
            values = array("d", [message for _, message in pairs])
            indexes = [index for index, _ in pairs]
            typecode = "i" if max(indexes) < 2**31 else "q"
            targets = array(typecode, indexes)
            if targets == self._targets:
                return ("f64-repeat", values)
            self._targets = targets
            return ("f64", targets, values)
        return ("raw", pairs)

    def unpack(self, packed: tuple) -> list:
        tag = packed[0]
        if tag == "f64":
            self._targets = packed[1]
            return list(zip(packed[1].tolist(), packed[2].tolist()))
        if tag == "f64-repeat":
            return list(zip(self._targets.tolist(), packed[1].tolist()))
        return packed[1]


# --------------------------------------------------------------------------- #
# worker process main loop
# --------------------------------------------------------------------------- #
def _worker_main(conn, inherited, lo: int, hi: int, worker_factory) -> None:
    # a fork holds the coordinator's end of its own pipe and of every pipe
    # opened before it; while any copy is open no worker sees EOF, so a
    # coordinator that dies without close() would leave the pool running
    for parent_end in inherited:
        parent_end.close()
    # a coordinator's handlers (``repro serve`` traps SIGTERM) are not the
    # worker's: a signalled worker just dies, and the pool reports it
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        worker = worker_factory(lo, hi)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    try:
        while True:
            try:
                method, argument = conn.recv()
            except EOFError:
                break
            if method is None:  # stop
                break
            try:
                conn.send(("ok", getattr(worker, method)(argument)))
            except BaseException:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class ParallelSuperstepExecutor:
    """A pool of persistent per-partition worker processes.

    ``worker_factory(lo, hi)`` is called *inside* each forked worker to build
    the partition's worker object; anything it references is inherited by the
    fork (or, for vertex-centric workers, loaded from the snapshot file).

    Use as a context manager, or call :meth:`start` / :meth:`close`.

    Everything a worker does is a method invoked by name: :meth:`call` (one
    payload per partition, results gathered in partition order — a superstep
    is ``call("run_superstep", payloads)``) or :meth:`broadcast` (the same
    payload everywhere) — which is what lets the plan-level scheduler reuse
    one pool across heterogeneous nodes.
    """

    #: cumulative successful :meth:`start` calls in this process — the
    #: instrumentation the plan-scheduling tests read to assert "one worker
    #: pool per plan"
    started_total = 0

    def __init__(
        self,
        parallelism: int,
        num_items: int,
        worker_factory: Callable[[int, int], Any],
        *,
        partitions: Sequence[tuple[int, int]] | None = None,
    ) -> None:
        if parallelism < 1:
            raise VertexCentricError("parallelism must be at least 1")
        if partitions is None:
            self.partitions = partition_range(num_items, parallelism)
        else:
            # explicit geometry — the out-of-core path hands the sharded
            # snapshot's manifest ranges straight in, so worker partitions
            # and segment files align one-to-one
            self.partitions = [(int(lo), int(hi)) for lo, hi in partitions]
            expected_lo = 0
            for lo, hi in self.partitions:
                if lo != expected_lo or hi < lo:
                    raise VertexCentricError(
                        f"explicit partitions must be contiguous ascending over "
                        f"[0, {num_items}), got {self.partitions}"
                    )
                expected_lo = hi
            if expected_lo != num_items:
                raise VertexCentricError(
                    f"explicit partitions cover [0, {expected_lo}), expected [0, {num_items})"
                )
        self._worker_factory = worker_factory
        self._procs: list = []
        self._conns: list = []
        self._started = False

    # ------------------------------------------------------------------ #
    def start(self) -> "ParallelSuperstepExecutor":
        if self._started:
            return self
        if "fork" not in multiprocessing.get_all_start_methods():
            raise VertexCentricError(
                "parallel supersteps require the 'fork' multiprocessing start "
                "method; run with parallelism=1 on this platform"
            )
        context = multiprocessing.get_context("fork")
        try:
            for lo, hi in self.partitions:
                parent, child = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(child, [*self._conns, parent], lo, hi, self._worker_factory),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for conn in self._conns:
                status, payload = conn.recv()
                if status != "ready":
                    raise VertexCentricError(f"parallel worker failed to start:\n{payload}")
        except BaseException:
            self.close()
            raise
        self._started = True
        with _COUNTER_LOCK:
            ParallelSuperstepExecutor.started_total += 1
        _THREAD_COUNTERS.started = getattr(_THREAD_COUNTERS, "started", 0) + 1
        return self

    def __enter__(self) -> "ParallelSuperstepExecutor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def running(self) -> bool:
        """Whether the worker processes are up: False before :meth:`start`
        and after :meth:`close` — including the close a dead worker forces."""
        return self._started

    # ------------------------------------------------------------------ #
    def _died(self, worker: int, doing: str) -> WorkerDiedError:
        """Close the pool over a dead worker; the error for the caller to
        raise.  A dead worker's pipe fails with EOFError after a clean exit
        and with a raw OSError (broken pipe, connection reset) after a kill —
        both ends of every exchange catch both."""
        self.close()
        return WorkerDiedError(f"parallel worker {worker} died {doing}")

    def call(self, method: str, payloads: Sequence[Any]) -> list[Any]:
        """Invoke ``worker.<method>(payload)`` on every worker — one payload
        per partition — and gather results in partition order."""
        if not self._started:
            raise VertexCentricError("executor is not running (call start() first)")
        if len(payloads) != len(self.partitions):
            raise VertexCentricError(
                f"expected {len(self.partitions)} payloads, got {len(payloads)}"
            )
        for k, (conn, payload) in enumerate(zip(self._conns, payloads)):
            try:
                conn.send((method, payload))
            except OSError:
                raise self._died(k, "mid-superstep") from None
        results = []
        for k, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                raise self._died(k, "mid-superstep") from None
            if status != "ok":
                self.close()
                raise VertexCentricError(f"compute failed in parallel worker {k}:\n{payload}")
            results.append(payload)
        return results

    def broadcast(self, method: str, payload: Any) -> list[Any]:
        """Invoke ``worker.<method>(payload)`` with the same payload on every
        worker (e.g. installing a new superstep program on a reused pool)."""
        return self.call(method, [payload] * len(self.partitions))

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send((None, None))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs = []
        self._conns = []
        self._started = False


# --------------------------------------------------------------------------- #
# the snapshot worker (vertex-centric supersteps; the plan scheduler's
# PlanWorker extends it with direct-kernel work)
# --------------------------------------------------------------------------- #
class _WorkerCoordinator:
    """What a :class:`~repro.vertexcentric.framework.VertexContext` talks to
    while one partition's ``compute`` calls run.

    Reads see the previous superstep's values (double buffering); writes,
    halts, wake-ups and aggregator contributions are recorded and handed
    back to the master for the deterministic merge.  Workers only hold the
    snapshot: compute functions read topology through the context
    (``neighbors`` / ``degree``), never through the source representation.
    """

    def __init__(self, csr: CSRGraph, lo: int, hi: int, backend, values: dict | None) -> None:
        self.csr = csr
        self.num_vertices = csr.n
        self.superstep = 0
        self.lo = lo
        self.hi = hi
        self.backend = backend
        #: last superstep's value of every vertex: the master's own map when
        #: the worker runs in-process, else a mirror kept current by the
        #: deltas each superstep's payload carries
        self._mirrored = values is None
        self._previous: dict = (
            {vertex: {} for vertex in csr.external_ids} if self._mirrored else values
        )
        self._aggregate_previous: dict[str, float] = {}
        self._writes: dict = {}
        self._halts: set = set()
        self._woken: set = set()
        self._contributions: dict[str, list[float]] = {}
        self._gather_cache: dict[tuple[str, float], list[float]] = {}

    def begin_superstep(self, superstep: int, deltas: dict, aggregates: dict) -> None:
        if self._mirrored:  # the master's own map is already merged
            previous = self._previous
            for vertex, data in deltas.items():
                previous[vertex].update(data)
        self.superstep = superstep
        self._aggregate_previous = aggregates
        self._writes = {}
        self._halts = set()
        self._woken = set()
        self._contributions = {}
        self._gather_cache = {}

    # -- the VertexContext-facing interface ----------------------------- #
    def read_value(self, vertex, key, default=None):
        return self._previous.get(vertex, {}).get(key, default)

    def write_value(self, vertex, key, value) -> None:
        self._writes.setdefault(vertex, {})[key] = value

    def vote_to_halt(self, vertex) -> None:
        self._halts.add(vertex)

    def activate(self, vertex) -> None:
        self._woken.add(vertex)

    def aggregate(self, name: str, value: float) -> None:
        self._contributions.setdefault(name, []).append(value)

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        return self._aggregate_previous.get(name, default)

    def gather_sum(self, index: int, key: str, default: float) -> float:
        """Backend segment sums over this worker's partition of the snapshot
        — the vectorised gather phase, computed once per (superstep, key) for
        the whole partition.  The per-vertex reductions do not depend on the
        partition bounds, so gathers are bit-identical under any partitioning."""
        entry = self._gather_cache.get((key, default))
        if entry is None:
            previous = self._previous
            values = [previous[v].get(key, default) for v in self.csr.external_ids]
            entry = self.backend.segment_sums(self.csr, values, self.lo, self.hi)
            self._gather_cache[(key, default)] = entry
        return entry[index - self.lo]


class SnapshotWorker:
    """One partition's worker over a CSR snapshot.

    Forked pools build it with :meth:`factory`, which maps the run's snapshot
    file read-only inside the worker process — the whole file, shared by all
    workers through the page cache, or under sharding only the worker's own
    segment file, so no process ever maps the full graph.  The in-process
    pool wraps one directly around the coordinator's snapshot.
    """

    def __init__(self, csr: CSRGraph, lo: int, hi: int, backend) -> None:
        self.csr = csr
        self.lo = lo
        self.hi = hi
        self.backend = backend
        self._coordinator: _WorkerCoordinator | None = None

    @classmethod
    def factory(
        cls, snapshot_path, backend: str | None = None, *, sharded: bool = False, program=None
    ) -> Callable[[int, int], "SnapshotWorker"]:
        """The ``worker_factory(lo, hi)`` of a pool of this class over
        ``snapshot_path`` — a shard *manifest* when ``sharded`` (the pool's
        partitions must equal its shard ranges).  ``backend`` is the
        coordinator's resolved backend name, so workers run the same kernels
        regardless of their inherited environment.  ``program`` is installed
        inside the fork: a standalone run's executor is inherited, never
        pickled."""
        return functools.partial(cls._open, snapshot_path, backend, sharded, program)

    @classmethod
    def _open(cls, snapshot_path, backend, sharded, program, lo: int, hi: int):
        if sharded:
            from repro.graph.shard_store import load_shard

            csr: CSRGraph = load_shard(snapshot_path, (lo, hi), mmap=True)
        else:
            csr = CSRGraph.load(snapshot_path, mmap=True, verify=False)
        worker = cls(csr, lo, hi, get_backend(backend))
        if program is not None:
            worker.install_program(program)
        return worker

    def install_program(self, executor, values: dict | None = None) -> None:
        """Adopt a vertex-centric program: fresh per-program state, same
        process, same snapshot.  ``values`` is the in-process case — the
        master's value map, read directly instead of mirrored."""
        from repro.vertexcentric.framework import VertexContext

        self._context_class = VertexContext
        self._coordinator = _WorkerCoordinator(self.csr, self.lo, self.hi, self.backend, values)
        self._compute = executor.compute

    def run_superstep(self, payload):
        coordinator = self._coordinator
        if coordinator is None:
            raise RuntimeError("no superstep program installed on this worker")
        superstep, active, deltas, aggregates = payload
        coordinator.begin_superstep(superstep, deltas, aggregates)
        compute = self._compute
        make_context = self._context_class
        ids = self.csr.external_ids
        for index in active:
            compute(make_context(coordinator, ids[index], index))
        return (
            coordinator._writes,
            coordinator._halts,
            coordinator._woken,
            coordinator._contributions,
            len(active),
        )

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


class InProcessPool:
    """The one-partition case of :class:`ParallelSuperstepExecutor`: the same
    ``partitions`` / ``call`` surface around a worker on the caller's stack —
    no fork, no snapshot file, no pipe."""

    def __init__(self, worker: SnapshotWorker) -> None:
        self.partitions = [(worker.lo, worker.hi)]
        self._worker = worker

    def call(self, method: str, payloads: Sequence[Any]) -> list[Any]:
        (payload,) = payloads
        return [getattr(self._worker, method)(payload)]
