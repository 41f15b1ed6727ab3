"""A simulated Apache Giraph: bulk-synchronous message passing (Section 6.4).

The paper ports EXP, DEDUP-1 and BITMAP to Giraph and compares running time,
memory and (implicitly) message volume for Degree, PageRank and Connected
Components.  This module provides the substrate for that experiment: a
single-process Pregel-style engine with

* vertices (real or virtual) holding a value, an out-edge list and arbitrary
  per-vertex data,
* superstep execution with message delivery in the following superstep,
* vote-to-halt semantics (a vertex is reactivated by an incoming message),
* Pregel-style sum aggregators (contributed during superstep ``k``, visible
  in superstep ``k + 1``; used by PageRank's dangling-mass correction),
* metrics: messages per superstep, total messages, supersteps, and an
  analytic memory estimate for vertices + edges + peak message buffer.

Internally the engine assigns every vertex a dense integer index at
construction — the same compressed layout the CSR kernel uses — and schedules
supersteps over flat inbox/halted arrays; vertex identifiers only appear at
the ``send`` boundary and in the program-facing API, which is unchanged.

With ``parallelism=N`` (default 1 = serial) supersteps run through the shared
:class:`~repro.vertexcentric.parallel.ParallelSuperstepExecutor` — the same
pool and the same named-method wire command the vertex-centric framework
uses, here over :class:`_GiraphChunkWorker`: the dense
index range is split into ``N`` fixed contiguous partitions, each owned by a
persistent forked worker that keeps its partition's vertex state (values,
``data`` scratch, halt votes) local across supersteps; the master routes
messages between partitions and re-reduces aggregator contributions in
partition order, so values, metrics and floating-point aggregates are
bit-identical to the serial engine.  The serial loop in :meth:`GiraphEngine.run`
stays as this engine's reference (driving it through a one-partition chunk
worker costs 1.6-1.8x: every message would take the pack/route path).

The engine knows nothing about condensed representations; the adapters in
:mod:`repro.giraph.adapters` build the vertex sets for each representation and
the programs in :mod:`repro.giraph.programs` implement the per-representation
compute logic.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.exceptions import VertexCentricError
from repro.utils.memory import EDGE_SLOT_BYTES, NODE_OVERHEAD_BYTES
from repro.vertexcentric.parallel import MessageChannel, ParallelSuperstepExecutor

MESSAGE_BYTES = 24


@dataclass
class GiraphVertex:
    """One vertex of the simulated Giraph graph."""

    vertex_id: Hashable
    edges: list[Hashable] = field(default_factory=list)
    value: Any = None
    is_virtual: bool = False
    #: representation-specific payload (e.g. BITMAP allowed-target sets,
    #: precomputed logical degree)
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class GiraphMetrics:
    """Execution metrics of one Giraph run."""

    supersteps: int = 0
    total_messages: int = 0
    messages_per_superstep: list[int] = field(default_factory=list)
    compute_calls: int = 0
    peak_message_buffer: int = 0
    vertex_count: int = 0
    virtual_vertex_count: int = 0
    edge_count: int = 0

    def estimated_memory_bytes(self) -> int:
        """Vertices + adjacency + peak in-flight messages, analytic model."""
        return (
            self.vertex_count * NODE_OVERHEAD_BYTES
            + self.edge_count * EDGE_SLOT_BYTES
            + self.peak_message_buffer * MESSAGE_BYTES
        )


class GiraphContext:
    """Per-superstep services available to a program's ``compute``."""

    def __init__(self, engine: "GiraphEngine") -> None:
        self._engine = engine

    @property
    def superstep(self) -> int:
        return self._engine.superstep

    @property
    def num_real_vertices(self) -> int:
        return self._engine.num_real_vertices

    def send(self, target: Hashable, message: Any) -> None:
        self._engine.send(target, message)

    def vote_to_halt(self, vertex_id: Hashable) -> None:
        self._engine.vote_to_halt(vertex_id)

    def aggregate(self, name: str, value: float) -> None:
        """Add ``value`` to the named sum aggregator for the next superstep."""
        self._engine.aggregate(name, value)

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        """The named aggregator's total from the previous superstep."""
        return self._engine.get_aggregate(name, default)


class GiraphProgram(ABC):
    """A vertex program for the simulated Giraph engine."""

    #: stop automatically after this many supersteps (None = until halted)
    max_supersteps: int | None = None

    @abstractmethod
    def compute(self, vertex: GiraphVertex, messages: list[Any], ctx: GiraphContext) -> None:
        """Called for every active vertex each superstep."""


class GiraphEngine:
    """Synchronous BSP execution over a fixed vertex set.

    Vertices are compiled into a dense index space once; superstep scheduling
    (active-set computation, message routing, halting) runs over flat lists
    indexed by those integers.
    """

    def __init__(self, vertices: dict[Hashable, GiraphVertex], parallelism: int = 1) -> None:
        if parallelism < 1:
            raise VertexCentricError("parallelism must be at least 1")
        self._vertices = vertices
        #: number of worker processes for supersteps (1 = serial, the default)
        self._parallelism = parallelism
        #: dense layout shared by inbox/outbox/halted arrays
        self._ids: list[Hashable] = list(vertices)
        self._index: dict[Hashable, int] = {vid: i for i, vid in enumerate(self._ids)}
        self._ordered: list[GiraphVertex] = [vertices[vid] for vid in self._ids]
        self.num_real_vertices = sum(1 for v in self._ordered if not v.is_virtual)
        self.superstep = 0
        n = len(self._ids)
        self._inbox: list[list[Any] | None] = [None] * n
        self._outbox: list[list[Any] | None] = [None] * n
        self._halted = bytearray(n)
        self._messages_sent_this_superstep = 0
        self._aggregate_previous: dict[str, float] = {}
        self._aggregate_next: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> dict[Hashable, GiraphVertex]:
        return self._vertices

    def vertex(self, vertex_id: Hashable) -> GiraphVertex:
        return self._vertices[vertex_id]

    def values(self, real_only: bool = True) -> dict[Hashable, Any]:
        return {
            vid: vertex.value
            for vid, vertex in self._vertices.items()
            if not (real_only and vertex.is_virtual)
        }

    # ------------------------------------------------------------------ #
    def send(self, target: Hashable, message: Any) -> None:
        """Queue ``message`` for ``target``'s next superstep.

        Numeric message batching: a per-target box holding only plain floats
        (the dominant case — every PageRank share) is an ``array('d')``
        buffer, 8 bytes per message instead of a boxed Python float per list
        slot.  The first non-float message degrades the box to a list,
        preserving order, so delivery semantics are unchanged.
        """
        index = self._index.get(target)
        if index is None:
            raise VertexCentricError(f"message sent to unknown vertex {target!r}")
        box = self._outbox[index]
        if box is None:
            box = self._outbox[index] = array("d") if type(message) is float else []
        elif type(box) is array and type(message) is not float:
            box = self._outbox[index] = list(box)
        box.append(message)
        self._messages_sent_this_superstep += 1

    def vote_to_halt(self, vertex_id: Hashable) -> None:
        self._halted[self._index[vertex_id]] = 1

    def aggregate(self, name: str, value: float) -> None:
        self._aggregate_next[name] = self._aggregate_next.get(name, 0.0) + value

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        return self._aggregate_previous.get(name, default)

    # ------------------------------------------------------------------ #
    def run(self, program: GiraphProgram, max_supersteps: int = 200) -> GiraphMetrics:
        metrics = GiraphMetrics(
            vertex_count=len(self._vertices),
            virtual_vertex_count=sum(1 for v in self._ordered if v.is_virtual),
            edge_count=sum(len(v.edges) for v in self._ordered),
        )
        limit = max_supersteps
        if program.max_supersteps is not None:
            limit = min(limit, program.max_supersteps)

        if self._parallelism > 1 and self._ids:
            return self._run_parallel(program, limit, metrics)

        context = GiraphContext(self)
        compute = program.compute
        n = len(self._ids)
        self.superstep = 0
        self._inbox = [None] * n
        self._halted = bytearray(n)
        self._aggregate_previous = {}
        while self.superstep < limit:
            inbox = self._inbox
            halted = self._halted
            active = [i for i in range(n) if not halted[i] or inbox[i] is not None]
            if not active:
                break
            self._outbox = [None] * n
            self._messages_sent_this_superstep = 0
            self._aggregate_next = {}
            ordered = self._ordered
            for i in active:
                halted[i] = 0
                messages = inbox[i]
                # programs always see a plain list (fresh when there are no
                # messages — compute may use the argument as scratch space);
                # batched float boxes are unpacked at this delivery boundary
                if messages is None:
                    messages = []
                elif type(messages) is array:
                    messages = messages.tolist()
                compute(ordered[i], messages, context)
                metrics.compute_calls += 1
            metrics.messages_per_superstep.append(self._messages_sent_this_superstep)
            metrics.total_messages += self._messages_sent_this_superstep
            metrics.peak_message_buffer = max(
                metrics.peak_message_buffer, self._messages_sent_this_superstep
            )
            self._inbox = self._outbox
            self._aggregate_previous = self._aggregate_next
            self.superstep += 1
            metrics.supersteps = self.superstep
        return metrics

    # ------------------------------------------------------------------ #
    # process-parallel supersteps (shared executor with repro.vertexcentric)
    # ------------------------------------------------------------------ #
    def _run_parallel(
        self, program: GiraphProgram, limit: int, metrics: GiraphMetrics
    ) -> GiraphMetrics:
        """BSP execution over fixed index partitions in worker processes.

        Each forked worker owns a contiguous partition of the dense index
        range for the whole run: vertex values and per-vertex ``data``
        scratch stay worker-local, the master only routes messages, merges
        aggregator contributions (flat left-to-right in partition order —
        the serial engine's summation order) and tracks termination.  Final
        vertex values are collected back into the master's vertex objects,
        so :meth:`values` works exactly as after a serial run.

        Message traffic crosses the worker pipes in batched form: an
        all-float superstep (PageRank shares) travels as flat typed buffers —
        and, while its target sequence repeats across supersteps (the usual
        case: shares scatter along the fixed adjacency), as value buffers
        alone — in both directions
        (:class:`repro.vertexcentric.parallel.MessageChannel`), which shrinks
        the pickled per-superstep payload while preserving delivery order and
        values exactly.
        """
        # the vertex list and index map reach the workers through the fork —
        # no pickling of the (possibly large) vertex set
        factory = functools.partial(
            _GiraphChunkWorker, self._ordered, self._index, self.num_real_vertices, program
        )
        pool = ParallelSuperstepExecutor(self._parallelism, len(self._ids), factory)
        #: partition id per dense index, for message routing
        owner = [0] * len(self._ids)
        for part, (lo, hi) in enumerate(pool.partitions):
            for i in range(lo, hi):
                owner[i] = part
        try:
            pool.start()
            self.superstep = 0
            self._aggregate_previous = {}
            inbox: dict[int, list[Any]] = {}
            non_halted = [hi - lo for lo, hi in pool.partitions]
            # one packing channel per pipe direction per partition
            outbound = [MessageChannel() for _ in pool.partitions]
            inbound = [MessageChannel() for _ in pool.partitions]
            while self.superstep < limit:
                if not inbox and not any(non_halted):
                    break
                grouped: list[list[tuple[int, Any]]] = [[] for _ in pool.partitions]
                for index in sorted(inbox):
                    box = grouped[owner[index]]
                    for message in inbox[index]:
                        box.append((index, message))
                payloads = [
                    (self.superstep, outbound[part].pack(items), self._aggregate_previous)
                    for part, items in enumerate(grouped)
                ]
                results = pool.call("run_superstep", payloads)

                inbox = {}
                aggregate_next: dict[str, float] = {}
                sent_total = 0
                for part, (sends, sent, calls, contributions, remaining) in enumerate(results):
                    metrics.compute_calls += calls
                    sent_total += sent
                    non_halted[part] = remaining
                    # partition order == ascending sender order == serial
                    # delivery order per target inbox
                    for target, message in inbound[part].unpack(sends):
                        box = inbox.get(target)
                        if box is None:
                            inbox[target] = [message]
                        else:
                            box.append(message)
                    for name, values in contributions.items():
                        total = aggregate_next.get(name, 0.0)
                        for value in values:
                            total = total + value
                        aggregate_next[name] = total
                metrics.messages_per_superstep.append(sent_total)
                metrics.total_messages += sent_total
                metrics.peak_message_buffer = max(metrics.peak_message_buffer, sent_total)
                self._aggregate_previous = aggregate_next
                self.superstep += 1
                metrics.supersteps = self.superstep
            # pull final vertex values back into the master's vertex objects
            ordered = self._ordered
            for partition_values in pool.broadcast("collect", None):
                for index, value in partition_values:
                    ordered[index].value = value
        finally:
            pool.close()
        return metrics


# --------------------------------------------------------------------------- #
# parallel chunk workers (run inside forked processes; see _run_parallel)
# --------------------------------------------------------------------------- #
class _GiraphChunkWorker:
    """Owns one contiguous partition of the dense vertex range for a run.

    Duck-types the engine for :class:`GiraphContext`: ``send`` records
    ordered ``(target_index, message)`` pairs for the master to route,
    ``vote_to_halt`` updates the partition-local halted array, aggregator
    contributions are kept as ordered lists for the master's serial-order
    re-reduction.
    """

    def __init__(
        self,
        ordered: list[GiraphVertex],
        index: dict[Hashable, int],
        num_real_vertices: int,
        program: GiraphProgram,
        lo: int,
        hi: int,
    ) -> None:
        self._ordered = ordered
        self._index = index
        self.num_real_vertices = num_real_vertices
        self._program = program
        self.lo = lo
        self.hi = hi
        self.superstep = 0
        self._halted = bytearray(len(ordered))  # only [lo, hi) is meaningful
        self._sends: list[tuple[int, Any]] = []
        self._messages_sent = 0
        self._aggregate_previous: dict[str, float] = {}
        self._contributions: dict[str, list[float]] = {}
        self._context = GiraphContext(self)
        #: packing channels for this worker's two pipe directions (peers of
        #: the master's per-partition channels)
        self._inbound = MessageChannel()
        self._outbound = MessageChannel()

    # -- the GiraphContext-facing interface ------------------------------ #
    def send(self, target: Hashable, message: Any) -> None:
        index = self._index.get(target)
        if index is None:
            raise VertexCentricError(f"message sent to unknown vertex {target!r}")
        self._sends.append((index, message))
        self._messages_sent += 1

    def vote_to_halt(self, vertex_id: Hashable) -> None:
        index = self._index[vertex_id]
        if not (self.lo <= index < self.hi):
            raise VertexCentricError(
                "parallel Giraph programs may only halt vertices of their own partition"
            )
        self._halted[index] = 1

    def aggregate(self, name: str, value: float) -> None:
        self._contributions.setdefault(name, []).append(value)

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        return self._aggregate_previous.get(name, default)

    # -- executor protocol ----------------------------------------------- #
    def run_superstep(self, payload):
        superstep, packed_inbox, aggregates = payload
        self.superstep = superstep
        self._aggregate_previous = aggregates
        self._sends = []
        self._messages_sent = 0
        self._contributions = {}
        inbox: dict[int, list[Any]] = {}
        for index, message in self._inbound.unpack(packed_inbox):
            box = inbox.get(index)
            if box is None:
                inbox[index] = [message]
            else:
                box.append(message)
        halted = self._halted
        active = [i for i in range(self.lo, self.hi) if not halted[i] or i in inbox]
        compute = self._program.compute
        ordered = self._ordered
        context = self._context
        calls = 0
        for i in active:
            halted[i] = 0
            messages = inbox.get(i)
            compute(ordered[i], messages if messages is not None else [], context)
            calls += 1
        remaining = sum(1 for i in range(self.lo, self.hi) if not halted[i])
        return (
            self._outbound.pack(self._sends),
            self._messages_sent,
            calls,
            self._contributions,
            remaining,
        )

    def collect(self, _payload=None):
        return [(i, self._ordered[i].value) for i in range(self.lo, self.hi)]
