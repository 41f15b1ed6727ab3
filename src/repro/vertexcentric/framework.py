"""The vertex-centric ("think like a vertex") execution framework.

Section 3.4 of the paper describes a simple multi-threaded vertex-centric
framework: a coordinator object splits the vertex set, runs a user-supplied
``compute`` function for every vertex each superstep, tracks which vertices
have voted to halt, and stops when all have halted (or a superstep limit is
reached).  Communication follows the gather-apply-scatter style of GraphLab:
a vertex reads its neighbors' *previous-superstep* values directly instead of
exchanging explicit messages.

This reproduction keeps the same API (an :class:`Executor` with a single
``compute`` method, run through :class:`VertexCentric`) and has **one**
coordinator loop, :meth:`VertexCentric._superstep_loop`: each superstep it
splits the active vertices along the pool's fixed partition bounds, has every
partition's worker run its ``compute`` calls against last superstep's value
map, and merges the partitions' writes, halt votes, wake-ups and aggregator
contributions in partition order.  The default ``parallelism=1`` is the
one-partition case, run in-process on the caller's stack — CPython threads
would add overhead without parallelism, and every comparison in the paper is
relative between representations on the same engine.  With ``parallelism=N``
the same loop drives ``N`` worker *processes* that map the persisted snapshot
file read-only (:mod:`repro.vertexcentric.parallel`).  The worker class, the
object a :class:`VertexContext` talks to and the merge are the same either
way, so results — including floating-point aggregator sums — do not depend
on the partition count.

Supersteps are scheduled over the graph's CSR snapshot
(:meth:`repro.graph.api.Graph.snapshot`): neighbor iteration and degrees come
from the flat offset/target arrays instead of per-vertex ``get_neighbors``
calls, so a PageRank superstep over a condensed representation no longer
re-traverses the virtual layer for every vertex.  The ``compute`` API
continues to see external vertex IDs.

The *gather* phase additionally routes through the selected kernel backend
(:func:`repro.graph.backend.get_backend`): ``ctx.gather_sum(key)`` returns
the sum of the vertex's out-neighbors' previous-superstep values for ``key``,
computed **once per superstep for a worker's whole partition** as a backend
segment-sum over the snapshot's flat adjacency — a vectorised scatter-gather
on the ``numpy`` backend — instead of per-vertex dict lookups.  The
``python`` backend sums in snapshot target order, so every partitioning
performs identical per-vertex reductions.
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.exceptions import VertexCentricError
from repro.graph.api import Graph, VertexId
from repro.graph.backend import get_backend
from repro.vertexcentric.parallel import (
    InProcessPool,
    ParallelSuperstepExecutor,
    SnapshotWorker,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vertexcentric.parallel import _WorkerCoordinator


class VertexContext:
    """Everything a ``compute`` function may touch for one vertex."""

    __slots__ = ("_coordinator", "vertex", "_index")

    def __init__(self, coordinator: "_WorkerCoordinator", vertex: VertexId, index: int) -> None:
        self._coordinator = coordinator
        self.vertex = vertex
        self._index = index

    # ------------------------------------------------------------------ #
    @property
    def superstep(self) -> int:
        return self._coordinator.superstep

    def neighbors(self) -> Iterator[VertexId]:
        """External IDs of the vertex's out-neighbors, off the CSR snapshot."""
        csr = self._coordinator.csr
        ids = csr.external_ids
        targets = csr.targets_list
        offsets = csr.offsets_list
        index = self._index
        return (ids[targets[e]] for e in range(offsets[index], offsets[index + 1]))

    def degree(self) -> int:
        csr = self._coordinator.csr
        index = self._index
        return csr.offsets_list[index + 1] - csr.offsets_list[index]

    def num_vertices(self) -> int:
        return self._coordinator.num_vertices

    # ------------------------------------------------------------------ #
    # GAS-style value access: reads see the previous superstep, writes go to
    # the next one (double buffering keeps the execution deterministic)
    # ------------------------------------------------------------------ #
    def get_value(self, key: str = "value", default: Any = None) -> Any:
        return self._coordinator.read_value(self.vertex, key, default)

    def set_value(self, value: Any, key: str = "value") -> None:
        self._coordinator.write_value(self.vertex, key, value)

    def get_neighbor_value(self, neighbor: VertexId, key: str = "value", default: Any = None) -> Any:
        return self._coordinator.read_value(neighbor, key, default)

    def gather_sum(self, key: str = "value", default: float = 0.0) -> float:
        """Sum of the out-neighbors' previous-superstep values for ``key``.

        The values must be numeric; missing entries count as ``default``.
        Computed through the kernel backend as one segment sum over the
        worker's partition the first time a superstep asks for ``key``, then
        served from the cached per-index list — the vectorised gather phase
        of the engine.
        """
        return self._coordinator.gather_sum(self._index, key, default)

    def vote_to_halt(self) -> None:
        self._coordinator.vote_to_halt(self.vertex)

    def activate(self, vertex: VertexId) -> None:
        """Wake a halted vertex up for the next superstep."""
        self._coordinator.activate(vertex)

    # ------------------------------------------------------------------ #
    # Pregel-style aggregators: contributions are summed during a superstep
    # and visible to every vertex in the next one
    # ------------------------------------------------------------------ #
    def aggregate(self, name: str, value: float) -> None:
        """Add ``value`` to the named sum aggregator for the next superstep."""
        self._coordinator.aggregate(name, value)

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        """The named aggregator's total from the previous superstep."""
        return self._coordinator.get_aggregate(name, default)


class Executor(ABC):
    """User programs implement this single-method interface (paper's API)."""

    @abstractmethod
    def compute(self, ctx: VertexContext) -> None:
        """Called once per active vertex per superstep."""


@dataclass
class RunStatistics:
    """Execution statistics of one vertex-centric run."""

    supersteps: int = 0
    compute_calls: int = 0
    halted_early: bool = False
    #: partitions driven, summed over supersteps (1 per superstep in-process)
    chunk_count: int = 0
    per_superstep_active: list[int] = field(default_factory=list)


class VertexCentric:
    """Coordinator for vertex-centric execution over any representation.

    The coordinator takes the graph's CSR snapshot once at construction; all
    supersteps run over that snapshot's dense arrays.
    """

    def __init__(
        self,
        graph: Graph,
        parallelism: int = 1,
        backend: str | None = None,
    ) -> None:
        if parallelism < 1:
            raise VertexCentricError("parallelism must be at least 1")
        self.graph = graph
        #: kernel backend powering the gather phase (in every worker)
        self.backend = get_backend(backend)
        #: the shared physical core every superstep is scheduled over
        self.csr = graph.snapshot()
        self.num_vertices = self.csr.n
        #: number of worker processes (1 = in-process, the default)
        self._parallelism = parallelism

        self.superstep = 0
        #: the merged value map: what every vertex read last superstep
        self._previous: dict[VertexId, dict[str, Any]] = {
            v: {} for v in self.csr.external_ids
        }
        self._halted: set[VertexId] = set()

    # ------------------------------------------------------------------ #
    def value(self, vertex: VertexId, key: str = "value", default: Any = None) -> Any:
        """Final value after :meth:`run` has completed."""
        return self._previous.get(vertex, {}).get(key, default)

    def values(self, key: str = "value") -> dict[VertexId, Any]:
        return {v: data.get(key) for v, data in self._previous.items()}

    def degree(self, vertex: VertexId) -> int:
        """Logical out-degree, read off the CSR snapshot's offset array."""
        index = self.csr.index(vertex)
        offsets = self.csr.offsets_list
        return offsets[index + 1] - offsets[index]

    # ------------------------------------------------------------------ #
    def run(self, executor: Executor, max_supersteps: int = 100) -> RunStatistics:
        """Run ``executor.compute`` until every vertex halts or the limit hits.

        One loop (:meth:`_superstep_loop`) drives whichever pool the run has:

        * ``parallelism == 1`` (or an empty graph): an in-process
          single-partition pool whose worker reads the coordinator's own
          value map — no fork, no snapshot file, no pipe;
        * otherwise this run forks its own pool, whose workers inherit the
          executor through the fork (it need not be picklable) and map a
          snapshot tempfile that lives for the run's duration.

        Workers only hold the snapshot: compute functions read topology
        through the context (``neighbors`` / ``degree``) and must not rely on
        mutable executor state carried across supersteps (each forked worker
        runs on its own copy of the executor).
        """
        if not isinstance(executor, Executor):
            raise VertexCentricError("executor must implement the Executor interface")
        n = self.num_vertices
        if n == 0 or self._parallelism == 1:
            worker = SnapshotWorker(self.csr, 0, n, self.backend)
            worker.install_program(executor, self._previous)
            return self._superstep_loop(InProcessPool(worker), max_supersteps)

        handle, path = tempfile.mkstemp(suffix=".csr", prefix="ggsnapshot-")
        os.close(handle)
        self.csr.save(path)
        factory = SnapshotWorker.factory(path, self.backend.name, program=executor)
        pool = ParallelSuperstepExecutor(self._parallelism, n, factory)
        try:
            pool.start()
            return self._superstep_loop(pool, max_supersteps)
        finally:
            pool.close()
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _superstep_loop(self, pool, max_supersteps: int) -> RunStatistics:
        """Drive supersteps against a pool — in-process or forked.

        Partition outputs are merged in fixed partition order: value maps,
        halting and floating-point aggregator totals come out the same
        whatever the partition count.
        """
        stats = RunStatistics()
        ids = self.csr.external_ids
        values = self._previous
        halted = self._halted
        self.superstep = 0
        deltas: dict[VertexId, dict[str, Any]] = {}
        aggregates: dict[str, float] = {}
        while self.superstep < max_supersteps:
            if halted:
                active = [i for i in range(self.num_vertices) if ids[i] not in halted]
            else:
                active = list(range(self.num_vertices))
            if not active:
                stats.halted_early = True
                break
            stats.per_superstep_active.append(len(active))
            # scatter: split the (ascending) active list along the fixed
            # partition bounds; broadcast last superstep's merged writes
            payloads = []
            position = 0
            for _, hi in pool.partitions:
                start = position
                position = bisect_left(active, hi, start)
                payloads.append((self.superstep, active[start:position], deltas, aggregates))
            results = pool.call("run_superstep", payloads)

            # gather: a vertex is computed by exactly one partition, so the
            # partitions' write maps are disjoint; untouched keys persist
            deltas = {}
            aggregates = {}
            woken: set[VertexId] = set()
            for writes, halts, wakes, contributions, calls in results:
                stats.chunk_count += 1
                stats.compute_calls += calls
                for vertex, data in writes.items():
                    values[vertex].update(data)
                deltas.update(writes)
                halted.update(halts)
                woken.update(wakes)
                for name, shares in contributions.items():
                    # flat left-to-right sum in ascending vertex order
                    total = aggregates.get(name, 0.0)
                    for share in shares:
                        total = total + share
                    aggregates[name] = total
            halted -= woken
            self.superstep += 1
            stats.supersteps = self.superstep
        return stats
