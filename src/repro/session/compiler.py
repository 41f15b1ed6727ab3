"""Optimizing plan compiler: a DAG of shared primitive nodes per plan.

This module is how :meth:`repro.session.AnalysisPlan.run` executes.  Run
request by request, a ``closeness + diameter + sampled-betweenness`` batch
would grow three full BFS/SSSP source sweeps over the same snapshot, execute
duplicate requests twice, and materialise derived views (the symmetrised
sorted CSR, degree arrays) inside whichever kernel touched them first.
Instead the request list is lowered into a small DAG of **primitive nodes**
and executed in dependency order over the :mod:`repro.session.scheduler`
worker machinery (one pool, one snapshot file per plan):

* ``snapshot`` — acquisition of the handle's shared CSR (cache-aware:
  reported ``reused`` when it came off the in-process cache or a store mmap);
* ``derive`` nodes — the views an inline kernel reads (its registry entry's
  ``views``): the symmetrised sorted adjacency (``und-csr``) and degree
  arrays, created once per plan so their cost is attributed to a node, and
  the per-vertex ``triangle-counts`` — a node *value*, gone when ``run()``
  returns;
* one fused ``sweep`` node — one traversal per source over the union of
  every sweep demand in the plan: hop distances are uniquely determined
  integers, so one BFS tree (or a Brandes traversal, whose distance array
  is that tree) feeds tree stats, distance rows and dependency vectors at
  once.  The source list goes to ``backend.sweep_products`` whole (the loop
  a pool worker runs on its slice), and Brandes products stay in the
  backend's native vector form until a ``finish`` needs a list;
* ``algo`` nodes — the request's runner, or for a sweep-covered request
  its registry ``finish`` over an answer built from the sweep's products.

The compiler names no algorithm: what it knows of one is a field of its
:data:`~repro.session.plan.PLAN_ALGORITHMS` entry — ``views``, and for a
sweep algorithm ``demand`` and ``finish`` (:mod:`repro.algorithms.centrality`).
Nodes are deduplicated by **structural key**: two requests with the same
algorithm and identical effective parameters resolve to one node (the
second result reports ``reused``).

**Bit-identity.**  Every result equals its per-request runner
(``PLAN_ALGORITHMS[name].kernel(csr, backend, params)``) exactly, floats
included, by construction: a sweep algorithm's runner is its ``finish``
over the answer its one demand streams, and :func:`_answer` hands the same
``finish`` the same answer — stats in the demand's own source order, its
per-source dependency vectors re-summed (``backend.add_delta``) in that
order, its distance row.

**One DAG, then placement.**  :func:`compile_plan` never sees the session's
``parallelism``: node keys, ``nodes_computed``, ``sweep_traversals`` and
every value are the same at any worker count.  :func:`place_on_pool` then
marks the only two nodes with an exact slice form and hands *those* to the
pool, one payload per partition: the **fused sweep**, split by source
(``sources[k::parts]``; products are independent per source and re-keyed by
it) — unless it streams a dependency total over every vertex, one ordered
float accumulation that stays on the coordinator — and the **``triangle-counts``
derive node**, split by vertex range (every triangle is attributed to its
smallest vertex, so the integer partial vectors add exactly).  Everything
else runs inline on the session's backend, and a plan holding neither node
starts no pool.  No vertex-centric program runs inside a plan: those
engines are reached through ``run_*`` / ``handle.giraph()`` only.

Every result gains per-node provenance
(:class:`~repro.session.NodeProvenance`): the nodes in its dependency
closure, each ``computed`` or ``reused``, with per-node seconds.
:class:`CompilerCounters` exposes process-global instrumentation deltas
(nodes computed/reused, sweep traversals) that the CSE regression tests
assert against.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.graph import snapshot_store
from repro.session.report import (
    AnalysisReport,
    AnalysisResult,
    NodeProvenance,
    Provenance,
    canonical_params,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph
    from repro.session.plan import AnalysisPlan, PlanAlgorithm


class CompilerCounters:
    """Process-global instrumentation (read as deltas, like
    ``ParallelSuperstepExecutor.started_total``): the CSE regression tests
    assert node-level compute counts through these."""

    #: plans lowered through the compiler
    plans_compiled = 0
    #: DAG nodes actually executed (snapshot builds included)
    nodes_computed = 0
    #: reuse events: a result's closure entry resolving to an
    #: already-available node (CSE hits, duplicate requests, cached snapshots)
    nodes_reused = 0
    #: sources traversed by sweep nodes — ``closeness + diameter +
    #: betweenness`` over an ``n``-vertex snapshot moves this by exactly
    #: ``n``, not ``n + samples + sample_size``
    sweep_traversals = 0


# --------------------------------------------------------------------------- #
# DAG structures
# --------------------------------------------------------------------------- #
@dataclass
class Node:
    """One primitive node of a compiled plan."""

    key: str
    kind: str  # "snapshot" | "derive" | "sweep" | "algo"
    #: algo: inline | sweep | incremental; sweep and triangle-counts:
    #: inline | chunks (sliced over the pool)
    mode: str = "inline"
    spec: "PlanAlgorithm | None" = None
    params: dict | None = None
    notes: tuple[str, ...] = ()
    deps: tuple["Node", ...] = ()
    #: a sweep-covered algo node's ``SweepDemand`` (its spec's ``demand``)
    demand: Any = None
    # runtime state
    done: bool = False
    value: Any = None
    #: the vector a maintainable node's value was shaped from (its
    #: ``PlanAlgorithm.dense``, the shared ``triangle-counts`` pass, or a
    #: swept distance row): what ``MaintainedResults.record`` keeps
    dense: list | None = None
    seconds: float = 0.0
    attributed: bool = False


@dataclass
class SweepPlan:
    """The plan's single fused source sweep and its per-source products."""

    node: Node
    sources: list[int] = field(default_factory=list)
    #: sources whose Brandes dependency vector is stored (sampled demands,
    #: each re-summing its own)
    delta_sources: set[int] = field(default_factory=set)
    #: sources whose distance row is stored
    dist_sources: set[int] = field(default_factory=set)
    #: accumulate a running delta total over *every* source in sweep order
    #: (a Brandes demand over every vertex: its runner's ascending source
    #: order, which is why a streaming sweep is never sliced)
    stream: bool = False
    covers_all: bool = False
    # runtime products
    stats: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    dists: dict[int, list[int]] = field(default_factory=dict)
    #: Brandes products stay in the backend's native vector form until a
    #: finish converts its total
    deltas: dict[int, Any] = field(default_factory=dict)
    stream_total: Any = None


@dataclass
class CompiledPlan:
    """A lowered plan: deduplicated nodes plus per-request bindings."""

    bindings: list[Node]  # one entry per original request, in plan order
    algo_nodes: list[Node]  # unique algo nodes, first-appearance order
    derive_nodes: list[Node]
    sweep: SweepPlan | None

    @property
    def wants_pool(self) -> bool:
        """Whether any node was placed on workers (algo nodes never are)."""
        sweep = () if self.sweep is None else (self.sweep.node,)
        return any(node.mode == "chunks" for node in (*self.derive_nodes, *sweep))


def _algo_key(name: str, params: dict) -> str:
    return f"algo:{name}({canonical_params(params)})" if params else f"algo:{name}"


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def compile_plan(
    requests: list[tuple["PlanAlgorithm", dict]],
    csr: "CSRGraph",
    *,
    incremental: dict[str, tuple[Any, float, str]] | None = None,
) -> CompiledPlan:
    """Lower a request list into a deduplicated node DAG (no execution).

    The DAG does not depend on the session's ``parallelism``;
    :func:`place_on_pool` decides afterwards which of its nodes run sliced.

    ``incremental`` maps structural algo keys to pre-served
    ``(values, seconds, note)`` triples from the handle's dynamic
    maintainers (see :mod:`repro.incremental`): those requests compile to
    already-``done`` ``"incremental"`` nodes that place no demand on the
    sweep, the derive views or the pool — a plan whose every request was
    maintained forks no pool and writes no snapshot file.
    """
    n = csr.n

    # -- CSE: one algo node per structural key --------------------------- #
    by_key: dict[str, Node] = {}
    bindings: list[Node] = []
    algo_nodes: list[Node] = []
    for spec, params in requests:
        key = _algo_key(spec.name, params)
        node = by_key.get(key)
        if node is None:
            served = None if incremental is None else incremental.get(key)
            if served is not None:
                values, seconds, note = served
                node = Node(
                    key=key,
                    kind="algo",
                    mode="incremental",
                    spec=spec,
                    params=params,
                    notes=(note,),
                    done=True,
                    value=values,
                    seconds=seconds,
                )
            else:
                node = Node(key=key, kind="algo", spec=spec, params=params)
            by_key[key] = node
            algo_nodes.append(node)
        bindings.append(node)

    # -- sweep demands: a rider joins only a sweep that some other demand
    #    already makes cover every vertex ------------------------------- #
    primary: list[tuple[Node, Any]] = []
    riders: list[tuple[Node, Any]] = []
    for node in algo_nodes:
        if node.mode == "incremental" or node.spec.demand is None:
            continue
        demand = node.spec.demand(csr, node.params)
        if demand is not None:  # no demand: the runner runs inline
            (riders if demand.rides_along else primary).append((node, demand))
    sweep = SweepPlan(node=Node(key="sweep", kind="sweep"))
    sweep.covers_all = any(demand.sources is None for _, demand in primary)
    joined = primary + riders if sweep.covers_all else primary
    for node, demand in joined:
        node.demand = demand
        node.mode = "sweep"
        node.deps = (sweep.node,)
        if demand.brandes and demand.sources is None:
            # a running total in ascending source order, as its runner sums
            sweep.stream = True
        elif demand.brandes:
            sweep.delta_sources.update(demand.sources)
        if demand.distances:
            sweep.dist_sources.update(demand.sources)
    if joined:
        if sweep.covers_all:
            sweep.sources = list(range(n))
        else:
            sweep.sources = list(
                dict.fromkeys(source for _, demand in joined for source in demand.sources)
            )
        sweep.node.key = "sweep[{}:{} sources]".format(
            "+".join(dict.fromkeys(node.spec.name for node, _ in joined)),
            len(sweep.sources),
        )

    # -- derive nodes: views shared by the inline kernels that read them -- #
    derive_nodes: list[Node] = []
    shared: dict[str, Node] = {}
    for node in algo_nodes:
        if node.mode != "inline":
            continue
        for key in node.spec.views:
            if key not in shared:
                shared[key] = Node(key=key, kind="derive")
                derive_nodes.append(shared[key])
            node.deps += (shared[key],)

    return CompiledPlan(
        bindings=bindings,
        algo_nodes=algo_nodes,
        derive_nodes=derive_nodes,
        sweep=sweep if joined else None,
    )


def place_on_pool(compiled: CompiledPlan) -> None:
    """The one placement rule of a ``parallelism > 1`` plan: the
    two nodes with an exact slice form run sliced over the pool — the fused
    sweep by source, unless it streams (one ordered float accumulation), and
    the ``triangle-counts`` pass by vertex range.  Everything else stays
    where :func:`compile_plan` put it: inline."""
    if compiled.sweep is not None and not compiled.sweep.stream:
        compiled.sweep.node.mode = "chunks"
    for node in compiled.derive_nodes:
        if node.key == "triangle-counts":
            node.mode = "chunks"


# --------------------------------------------------------------------------- #
# sweep execution
# --------------------------------------------------------------------------- #
def _execute_sweep(sweep: SweepPlan, csr: "CSRGraph", backend: "KernelBackend", pool) -> None:
    """Grow one traversal per swept source — in blocks, on the session's
    backend — and keep every demanded product (stats always; distances and
    deltas on demand, deltas in the backend's native form)."""
    started = time.perf_counter()
    CompilerCounters.sweep_traversals += len(sweep.sources)

    def payload(chunk: list[int]) -> list[tuple[int, bool, bool]]:
        return [
            (source, sweep.stream or source in sweep.delta_sources, source in sweep.dist_sources)
            for source in chunk
        ]

    if pool is None:
        # one slice, consumed lazily: a streamed total holds one delta at a time
        slices = [sweep.sources]
        batches = [backend.sweep_products(csr, payload(sweep.sources))]
    else:
        # a sliced sweep never streams, so products are independent per
        # source and keyed by it below; striding balances the workers
        # wherever in the list the (dearer) Brandes sources sit
        parts = len(pool.partitions)
        slices = [sweep.sources[k::parts] for k in range(parts)]
        batches = pool.call("run_sweep", [payload(chunk) for chunk in slices])
    for chunk, products in zip(slices, batches):
        for source, (stats, delta, dists) in zip(chunk, products):
            sweep.stats[source] = stats
            if sweep.stream:
                sweep.stream_total = backend.add_delta(sweep.stream_total, delta)
            if source in sweep.delta_sources:
                sweep.deltas[source] = delta
            if dists is not None:
                sweep.dists[source] = dists
    sweep.node.seconds = time.perf_counter() - started
    sweep.node.done = True


def _answer(sweep: SweepPlan, demand, n: int, backend: "KernelBackend") -> tuple:
    """One sweep-covered demand's ``(stats, delta, distances)`` answer from
    the fused products — what its runner's one-demand sweep streams."""
    sources = range(n) if demand.sources is None else demand.sources
    delta = None
    if demand.brandes and demand.sources is None:
        delta = sweep.stream_total
    elif demand.brandes:
        for source in sources:  # its runner's addition sequence
            delta = backend.add_delta(delta, sweep.deltas[source])
    distances = sweep.dists[sources[0]] if demand.distances else None
    return [sweep.stats[source] for source in sources], delta, distances


# --------------------------------------------------------------------------- #
# execution (the AnalysisPlan.run() body)
# --------------------------------------------------------------------------- #
def _pool_starts() -> int:
    """Pools started by the current thread so far.  The pool module (and
    ``multiprocessing`` with it) is imported where a pool starts; a process
    that has not imported it has started none, and a plan that needs no
    pool leaves it unimported."""
    parallel = sys.modules.get("repro.vertexcentric.parallel")
    return 0 if parallel is None else parallel.pool_starts_in_thread()


def run_compiled(plan: "AnalysisPlan") -> AnalysisReport:
    """Compile and execute ``plan``, returning its report (see module doc)."""
    handle = plan._handle
    session = handle.session
    backend = session.backend
    parallelism = session.parallelism

    started = time.perf_counter()
    # thread-local deltas: concurrent plans in one process (the graph
    # service) must each report only their own forks and writes
    pool_starts_before = _pool_starts()
    writes_before = snapshot_store.saves_in_thread()

    tick = time.perf_counter()
    taken = handle.take_snapshot()
    snapshot_seconds = time.perf_counter() - tick
    csr = taken.csr

    # pre-serve dynamic maintainers over the delta journal before lowering:
    # served requests compile to already-done "incremental" nodes, so they
    # never pull a sweep, a derive view or a pool into existence
    incremental_served: dict[str, tuple[Any, float, str]] = {}
    for spec, params in plan._requests:
        key = _algo_key(spec.name, params)
        if spec.maintainer is None or key in incremental_served:
            continue
        served = handle.maintained.serve(spec, params, csr, backend)
        if served is not None:
            incremental_served[key] = served
            CompilerCounters.nodes_computed += 1

    compiled = compile_plan(plan._requests, csr, incremental=incremental_served)
    if parallelism > 1 and csr.n > 0:
        place_on_pool(compiled)
    CompilerCounters.plans_compiled += 1
    snapshot_node = Node(
        key="snapshot", kind="snapshot", seconds=snapshot_seconds, done=True
    )
    # a heap snapshot was computed by this run; cache hits and store mmaps
    # reuse work a previous run (or plan) already paid for
    snapshot_fresh = taken.source == "heap"
    if snapshot_fresh:
        CompilerCounters.nodes_computed += 1

    pool = None
    release_pool = None
    cleanup_path: str | None = None
    try:
        if compiled.wants_pool:
            if session.store is not None:
                snapshot_path = handle.persist()
            else:
                fd, snapshot_path = tempfile.mkstemp(suffix=".csr", prefix="ggplan-")
                os.close(fd)
                cleanup_path = snapshot_path
                csr.save(snapshot_path)
            pool, release_pool = session.acquire_pool(
                csr.n, snapshot_path, csr.content_hash, backend.name
            )

        # shared derived views, then the fused sweep, before any consumer
        for node in compiled.derive_nodes:
            tick = time.perf_counter()
            if node.key == "und-csr":
                backend.warm_undirected(csr)
            elif node.key == "triangle-counts" and node.mode == "chunks":
                # one vertex range per worker; integer vectors add exactly
                partials = pool.call("triangle_counts", pool.partitions)
                node.value = [sum(column) for column in zip(*partials)]
            elif node.key == "triangle-counts":
                node.value = backend.triangles_per_vertex(csr)
            else:  # degrees
                backend.degrees(csr)
            node.seconds = time.perf_counter() - tick
            node.done = True
            CompilerCounters.nodes_computed += 1
        derived = {node.key: node.value for node in compiled.derive_nodes}
        if compiled.sweep is not None:
            # the node's mode, not mere pool presence: a streaming sweep
            # stays on the coordinator whatever the worker count
            sweep_pool = pool if compiled.sweep.node.mode == "chunks" else None
            _execute_sweep(compiled.sweep, csr, backend, sweep_pool)
            CompilerCounters.nodes_computed += 1

        results: list[AnalysisResult] = []
        seen_labels: dict[str, int] = {}
        for spec_params, node in zip(plan._requests, compiled.bindings):
            spec, params = spec_params
            if not node.done:
                tick = time.perf_counter()
                if node.mode == "sweep":
                    answer = _answer(compiled.sweep, node.demand, csr.n, backend)
                    node.value = spec.finish(csr, backend, params, answer)
                    # a maintainable rider's vector is its distance row
                    node.dense = answer[2]
                elif spec.maintainer is not None:
                    # the runner's two steps, keeping the vector (a derive
                    # node of the maintainer's name: shared) to record
                    if spec.maintainer in derived:
                        node.dense = derived[spec.maintainer]
                    else:
                        node.dense = spec.dense(csr, backend, params)
                    node.value = spec.shape(csr, node.dense)
                else:
                    node.value = spec.kernel(csr, backend, params)
                node.seconds = time.perf_counter() - tick
                node.done = True
                CompilerCounters.nodes_computed += 1

            # per-node provenance over the dependency closure, first
            # consumer attribution; result seconds = the work this request
            # actually triggered (snapshot excluded, as before)
            closure = (snapshot_node,) + node.deps + (node,)
            provenance_nodes = []
            result_seconds = 0.0
            for member in closure:
                if member.kind == "snapshot":
                    computed = snapshot_fresh and not member.attributed
                else:
                    computed = not member.attributed
                member.attributed = True
                status = "computed" if computed else "reused"
                if not computed:
                    CompilerCounters.nodes_reused += 1
                if computed and member.kind != "snapshot":
                    result_seconds += member.seconds
                provenance_nodes.append(
                    NodeProvenance(
                        key=member.key,
                        kind=member.kind,
                        status=status,
                        seconds=member.seconds,
                    )
                )

            engine, scheduled, result_parallelism = "kernel", "inline", 1
            if node.mode == "incremental":
                engine = "incremental"
            elif any(dep.mode == "chunks" for dep in node.deps):
                # answered from a node that ran sliced over the pool
                engine, scheduled, result_parallelism = "chunks", "pool", parallelism

            # a freshly computed maintainable result seeds the handle's
            # maintained results so the *next* run after mutations can serve
            # it from the journal (idempotent for duplicate bindings)
            if spec.maintainer is not None and node.mode != "incremental":
                handle.maintained.record(spec, params, csr, node.dense)

            count = seen_labels.get(spec.name, 0) + 1
            seen_labels[spec.name] = count
            label = spec.name if count == 1 else f"{spec.name}#{count}"
            results.append(
                AnalysisResult(
                    algorithm=spec.name,
                    label=label,
                    params={k: v for k, v in params.items()},
                    values=node.value,
                    seconds=result_seconds,
                    engine=engine,
                    provenance=Provenance(
                        representation=handle.representation,
                        backend=backend.name,
                        snapshot_source=taken.source,
                        parallelism=result_parallelism,
                        delta_edges=taken.delta_edges,
                    ),
                    notes=node.notes + taken.notes,
                    scheduled=scheduled,
                    nodes=tuple(provenance_nodes),
                )
            )
    finally:
        if release_pool is not None:
            release_pool()
        if cleanup_path is not None:
            try:
                os.unlink(cleanup_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    statuses = [node.status for result in results for node in result.nodes]
    computed_total = statuses.count("computed")
    reused_total = len(statuses) - computed_total
    journal = handle.journal
    return AnalysisReport(
        results=results,
        provenance=Provenance(
            representation=handle.representation,
            backend=backend.name,
            snapshot_source=taken.source,
            parallelism=parallelism,
            delta_edges=taken.delta_edges,
        ),
        total_seconds=time.perf_counter() - started,
        snapshot_builds=taken.builds,
        pool_starts=_pool_starts() - pool_starts_before,
        snapshot_writes=snapshot_store.saves_in_thread() - writes_before,
        nodes_computed=computed_total,
        nodes_reused=reused_total,
        journal=None if journal is None else journal.summary(),
    )
