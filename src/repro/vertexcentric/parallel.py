"""Process-parallel superstep execution over a shared snapshot file.

The vertex-centric coordinator and the Giraph engine both schedule supersteps
over frozen dense-index arrays, which makes their per-superstep work
embarrassingly parallel *within* a superstep: the dense vertex range is split
into fixed contiguous partitions and each partition's ``compute`` calls run in
a separate worker process.  What is **not** trivially parallel is keeping the
results bit-identical to the serial engines — floating-point aggregation and
message delivery are order-sensitive.  This module provides the shared
machinery and its determinism contract:

* **Fixed contiguous partitions.**  ``partition_range(n, parallelism)`` splits
  ``[0, n)`` into ascending contiguous chunks once per run.  Partition ``k``
  always owns the same dense indexes.

* **Persistent workers, fork start method.**  One worker process per
  partition lives for the whole run (created with the ``fork`` start method,
  so engine-side state such as Giraph vertex sets is inherited without
  pickling).  Vertex-centric workers do not even inherit the graph: they map
  the run's **snapshot file** read-only
  (:func:`repro.graph.snapshot_store.load_snapshot` with ``mmap=True``), so
  every worker shares one physical copy of ``offsets``/``targets`` through
  the page cache.

* **Deterministic merge.**  Each superstep the master scatters one payload
  per partition and gathers results *in partition order*.  Order-sensitive
  outputs are returned as ordered sequences (per-aggregator contribution
  lists, per-sender message lists) and re-reduced by the master with one flat
  left-to-right pass — exactly the serial engines' iteration order (ascending
  dense index).  Floating-point results are therefore bit-identical to
  serial execution, not merely close.

Workers implement two methods: ``run_superstep(payload) -> result`` and
``collect() -> result``; the executor only moves bytes and enforces ordering.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from array import array
from typing import Any, Callable, Sequence

from repro.exceptions import VertexCentricError
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
def _worker_main(conn, lo: int, hi: int, worker_factory) -> None:
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
                command, payload = conn.recv()
            except EOFError:
                break
            if command == "stop":
                break
            try:
                if command == "step":
                    result = worker.run_superstep(payload)
                elif command == "collect":
                    result = worker.collect()
                elif command == "call":
                    method, argument = payload
                    result = getattr(worker, method)(argument)
                else:
                    raise VertexCentricError(f"unknown worker command {command!r}")
                conn.send(("ok", result))
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

    Beyond the superstep protocol, workers may expose extra methods invoked
    by name through :meth:`call` (broadcast one payload per partition, gather
    in partition order) or :meth:`map_tasks` (independent whole-graph tasks
    load-balanced over free workers) — the plan-level scheduler uses these to
    reuse one pool across heterogeneous requests.
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
                    target=_worker_main, args=(child, lo, hi, self._worker_factory), daemon=True
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
    def _died(self, worker: int, doing: str) -> VertexCentricError:
        """Close the pool over a dead worker; the error for the caller to
        raise.  A dead worker's pipe fails with EOFError after a clean exit
        and with a raw OSError (broken pipe, connection reset) after a kill —
        both ends of every exchange catch both."""
        self.close()
        return VertexCentricError(f"parallel worker {worker} died {doing}")

    def _round(self, command: str, payloads: Sequence[Any]) -> list[Any]:
        if not self._started:
            raise VertexCentricError("executor is not running (call start() first)")
        for k, (conn, payload) in enumerate(zip(self._conns, payloads)):
            try:
                conn.send((command, payload))
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

    def superstep(self, payloads: Sequence[Any]) -> list[Any]:
        """Scatter one payload per partition, gather results in partition order."""
        if len(payloads) != len(self.partitions):
            raise VertexCentricError(
                f"expected {len(self.partitions)} payloads, got {len(payloads)}"
            )
        return self._round("step", payloads)

    def collect(self) -> list[Any]:
        """Gather each worker's ``collect()`` result in partition order."""
        return self._round("collect", [None] * len(self.partitions))

    # ------------------------------------------------------------------ #
    # generic named-method rounds (plan-level scheduling)
    # ------------------------------------------------------------------ #
    def call(self, method: str, payloads: Sequence[Any]) -> list[Any]:
        """Invoke ``worker.<method>(payload)`` on every worker — one payload
        per partition — and gather results in partition order."""
        if len(payloads) != len(self.partitions):
            raise VertexCentricError(
                f"expected {len(self.partitions)} payloads, got {len(payloads)}"
            )
        return self._round("call", [(method, payload) for payload in payloads])

    def broadcast(self, method: str, payload: Any) -> list[Any]:
        """Invoke ``worker.<method>(payload)`` with the same payload on every
        worker (e.g. installing a new superstep program on a reused pool)."""
        return self.call(method, [payload] * len(self.partitions))

    def map_tasks(self, method: str, arguments: Sequence[Any]) -> list[Any]:
        """Run independent whole-graph tasks load-balanced over the workers.

        Each task is ``worker.<method>(argument)``; tasks are handed to free
        workers as they finish, so heterogeneous task durations do not
        serialise on the slowest.  Results come back in ``arguments`` order.
        Tasks must not depend on worker identity or partition bounds.
        """
        if not self._started:
            raise VertexCentricError("executor is not running (call start() first)")
        from multiprocessing.connection import wait

        results: list[Any] = [None] * len(arguments)
        free = list(range(len(self._conns)))
        pending: dict[Any, tuple[int, int]] = {}  # connection -> (task, worker)
        next_task = 0
        while next_task < len(arguments) or pending:
            while free and next_task < len(arguments):
                worker = free.pop()
                conn = self._conns[worker]
                try:
                    conn.send(("call", (method, arguments[next_task])))
                except OSError:
                    raise self._died(worker, f"running task {next_task}") from None
                pending[conn] = (next_task, worker)
                next_task += 1
            if not pending:
                break
            for conn in wait(list(pending)):
                index, worker = pending.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    raise self._died(worker, f"running task {index}") from None
                if status != "ok":
                    self.close()
                    raise VertexCentricError(
                        f"task {index} failed in parallel worker {worker}:\n{payload}"
                    )
                results[index] = payload
                free.append(worker)
        return results

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop", None))
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
# the vertex-centric chunk worker (used by repro.vertexcentric.framework)
# --------------------------------------------------------------------------- #
class _WorkerCoordinator:
    """Duck-types :class:`~repro.vertexcentric.framework.VertexCentric` for
    :class:`~repro.vertexcentric.framework.VertexContext` inside a worker.

    Reads see the previous superstep's values (double buffering, as in the
    serial coordinator); writes, halts, wake-ups and aggregator contributions
    are recorded and shipped back to the master for the deterministic merge.
    ``graph`` is ``None`` in workers: parallel compute functions must read
    topology through the context (``neighbors`` / ``degree``), not through
    the source representation.
    """

    graph = None

    def __init__(self, csr: CSRGraph, lo: int = 0, hi: int | None = None, backend=None) -> None:
        self.csr = csr
        self.num_vertices = csr.n
        self.superstep = 0
        self.lo = lo
        self.hi = csr.n if hi is None else hi
        self.backend = backend if backend is not None else get_backend()
        self._previous: dict = {vertex: {} for vertex in csr.external_ids}
        self._aggregate_previous: dict[str, float] = {}
        self._writes: dict = {}
        self._halts: set = set()
        self._woken: set = set()
        self._contributions: dict[str, list[float]] = {}
        self._gather_cache: dict[tuple[str, float], list[float]] = {}

    def begin_superstep(self, superstep: int, deltas: dict, aggregates: dict) -> None:
        previous = self._previous
        for vertex, data in deltas.items():
            slot = previous.get(vertex)
            if slot is None:
                previous[vertex] = dict(data)
            else:
                slot.update(data)
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
        slot = self._writes.get(vertex)
        if slot is None:
            self._writes[vertex] = {key: value}
        else:
            slot[key] = value

    def vote_to_halt(self, vertex) -> None:
        self._halts.add(vertex)

    def activate(self, vertex) -> None:
        self._woken.add(vertex)

    def aggregate(self, name: str, value: float) -> None:
        self._contributions.setdefault(name, []).append(value)

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        return self._aggregate_previous.get(name, default)

    def gather_sum(self, index: int, key: str, default: float) -> float:
        """Backend segment sums over this worker's partition of the shared
        mmap'd snapshot — the vectorised gather phase, computed once per
        (superstep, key) for the whole partition.  Identical per-vertex
        reductions to the serial coordinator's whole-graph call, so parallel
        gathers stay bit-identical to serial execution."""
        entry = self._gather_cache.get((key, default))
        if entry is None:
            previous = self._previous
            values = [previous[v].get(key, default) for v in self.csr.external_ids]
            entry = self.backend.segment_sums(self.csr, values, self.lo, self.hi)
            self._gather_cache[(key, default)] = entry
        return entry[index - self.lo]


class VertexChunkWorker:
    """Runs one partition's ``compute`` calls over the mmap-loaded snapshot."""

    def __init__(self, csr: CSRGraph, executor, lo: int, hi: int, backend=None) -> None:
        from repro.vertexcentric.framework import VertexContext

        self._context_class = VertexContext
        self._coordinator = _WorkerCoordinator(csr, lo, hi, backend=backend)
        self._compute = executor.compute
        self._ids = csr.external_ids
        self.lo = lo
        self.hi = hi

    def run_superstep(self, payload):
        superstep, active, deltas, aggregates = payload
        coordinator = self._coordinator
        coordinator.begin_superstep(superstep, deltas, aggregates)
        compute = self._compute
        make_context = self._context_class
        ids = self._ids
        calls = 0
        for index in active:
            compute(make_context(coordinator, ids[index], index))
            calls += 1
        return (
            coordinator._writes,
            coordinator._halts,
            coordinator._woken,
            coordinator._contributions,
            calls,
        )

    def collect(self):  # pragma: no cover - master merges every superstep
        return None

    def memory_stats(self, _payload=None) -> dict:
        """This worker's snapshot footprint — the out-of-core assertion data."""
        from repro.utils.memstats import mapped_snapshot_bytes, peak_rss_bytes

        return {
            "lo": self.lo,
            "hi": self.hi,
            "mapped_bytes": mapped_snapshot_bytes(self._coordinator.csr),
            "peak_rss_bytes": peak_rss_bytes(),
        }


class VertexChunkWorkerFactory:
    """Builds a :class:`VertexChunkWorker` inside a forked worker process.

    Loads the run's snapshot file with ``mmap=True`` so all workers share one
    physical copy of the arrays; the compute ``executor`` object is inherited
    through the fork.  With ``sharded=True`` the path is a shard *manifest*
    and each worker maps only its own partition's segment file
    (:func:`repro.graph.shard_store.load_shard` — the partition bounds must
    equal the manifest's shard ranges), so no single process ever maps the
    full graph.
    """

    def __init__(
        self,
        snapshot_path,
        executor,
        mmap: bool = True,
        backend: str | None = None,
        sharded: bool = False,
    ) -> None:
        self.snapshot_path = snapshot_path
        self.executor = executor
        self.mmap = mmap
        #: resolved backend name from the coordinator, so workers run the
        #: same kernels regardless of their inherited environment
        self.backend = backend
        self.sharded = sharded

    def __call__(self, lo: int, hi: int) -> VertexChunkWorker:
        if self.sharded:
            from repro.graph.shard_store import load_shard

            csr: CSRGraph = load_shard(self.snapshot_path, (lo, hi), mmap=self.mmap)
        else:
            csr = CSRGraph.load(self.snapshot_path, mmap=self.mmap, verify=False)
        return VertexChunkWorker(csr, self.executor, lo, hi, backend=get_backend(self.backend))
