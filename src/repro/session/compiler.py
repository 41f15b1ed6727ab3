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
* ``derive`` nodes — the backend-neutral symmetrised/sorted adjacency CSR
  (``und-csr``) and degree arrays, created once per plan when a
  consumer needs them, so the derivation cost is attributed to a node
  instead of hiding inside the first consuming kernel; and the per-vertex
  ``triangle-counts`` that ``triangles`` and ``clustering`` both
  read — a node *value*, gone when ``run()`` returns;
* one fused ``sweep`` node — per-source BFS trees / Brandes contributions
  over the union of every source-sweep demand in the plan.  Hop distances
  are uniquely determined integers, so a single traversal per source feeds
  closeness stats, diameter eccentricities, bfs distance maps *and*
  betweenness dependency vectors at once, and a Brandes traversal's internal
  distance array doubles as the BFS tree.  The source list goes to the
  backend's block-wise ``sweep`` whole (through :func:`sweep_products`,
  the same loop a pool worker runs on its slice), and Brandes products stay
  in the backend's native vector form until a finaliser needs a list;
* ``algo`` nodes — per-request execution or (for sweep-covered requests) a
  cheap finaliser over the sweep's products.

Nodes are deduplicated by **structural key**: two requests with the same
algorithm and identical effective parameters resolve to one node (the
second result reports ``reused``), and ``closeness + diameter +
sampled-betweenness`` in one plan perform the BFS/Brandes sweeps once.

**Bit-identity.**  Every result equals its per-request runner
(``PLAN_ALGORITHMS[name].kernel(csr, backend, params)``) exactly, floats
included: a sweep-covered request is shaped by the finaliser arithmetic its
runner applies to its own ``backend.sweep`` — closeness is
:func:`repro.algorithms.centrality.closeness_value` of integer tree stats,
diameter a max of integer eccentricities, and betweenness re-sums ordered
per-source contributions (``backend.add_delta``, elementwise) in each
request's own global source order before
:func:`~repro.algorithms.centrality.apply_betweenness_scale`.

**One DAG, then placement.**  :func:`compile_plan` never sees the session's
``parallelism``: node keys, ``nodes_computed``, ``sweep_traversals`` and
every value are the same at any worker count.  :func:`place_on_pool` then
marks the only two nodes with an exact slice form and hands *those* to the
pool, one payload per partition: the **fused sweep**, split by source
(``sources[k::parts]``; products are independent per source and re-keyed by
it) — unless it streams a full-source betweenness total, one ordered float
accumulation that stays on the coordinator — and the **``triangle-counts``
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

from repro.algorithms.bfs import encode_source
from repro.algorithms.centrality import (
    apply_betweenness_scale,
    betweenness_sources,
    closeness_value,
)
from repro.algorithms.shortest_paths import diameter_sample_indexes
from repro.graph import snapshot_store
from repro.incremental.base import decode
from repro.session.report import (
    AnalysisReport,
    AnalysisResult,
    NodeProvenance,
    Provenance,
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
    demand: dict | None = None  # sweep-extraction info for sweep-covered algo nodes
    # runtime state
    done: bool = False
    value: Any = None
    #: a maintainable inline node's value before decoding (see
    #: ``PlanAlgorithm.dense``): what the incremental record keeps
    dense: list | None = None
    seconds: float = 0.0
    attributed: bool = False


@dataclass
class SweepPlan:
    """The plan's single fused source sweep and its per-source products."""

    node: Node
    sources: list[int] = field(default_factory=list)
    #: sources whose Brandes dependency vector must be stored per source
    #: (strict-subset betweenness samples; re-summed per request)
    delta_sources: set[int] = field(default_factory=set)
    #: sources whose full distance list must be stored (bfs demands)
    dist_sources: set[int] = field(default_factory=set)
    #: accumulate a running delta total over *every* source in sweep order
    #: (full-source betweenness: the serial kernel's ascending source order,
    #: which is why a streaming sweep is never sliced)
    stream: bool = False
    covers_all: bool = False
    # runtime products
    stats: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    dists: dict[int, list[int]] = field(default_factory=dict)
    #: Brandes products stay in the backend's native vector form until a
    #: betweenness finaliser converts its total
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
        """Whether any node was placed on workers."""
        nodes = [*self.algo_nodes, *self.derive_nodes]
        if self.sweep is not None:
            nodes.append(self.sweep.node)
        return any(node.mode == "chunks" for node in nodes)


#: algorithms whose kernels consume the symmetrised adjacency view
_UND_CONSUMERS = {"kcore", "triangles", "clustering"}


def _params_signature(params: dict) -> tuple:
    return tuple(sorted(params.items(), key=lambda item: item[0]))


def _algo_key(name: str, params: dict) -> str:
    if not params:
        return f"algo:{name}"
    rendered = ", ".join(f"{key}={value!r}" for key, value in _params_signature(params))
    return f"algo:{name}({rendered})"


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

    # -- sweep demand collection (two passes: bfs coverage depends on
    #    whether some other demand already sweeps every source) ----------- #
    sweep = SweepPlan(node=Node(key="sweep", kind="sweep"))
    demanding: list[Node] = []
    for node in algo_nodes:
        if node.mode == "incremental":
            continue
        name = node.spec.name
        params = node.params
        if name == "closeness" and n > 0:
            node.demand = {"kind": "closeness"}
            sweep.covers_all = True
            demanding.append(node)
        elif name == "diameter" and n > 0:
            sources = diameter_sample_indexes(csr, params["samples"], params["seed"])
            if sources:
                node.demand = {"kind": "diameter", "sources": sources}
                demanding.append(node)
        elif name == "betweenness" and n > 2:  # n <= 2 is the runner's early exit
            sources, scale = betweenness_sources(csr, params["sample_size"], params["seed"])
            strict_subset = len(sources) < n
            node.demand = {
                "kind": "betweenness",
                "sources": sources,
                "scale": scale,
                "stream": not strict_subset,
            }
            if strict_subset:
                sweep.delta_sources.update(sources)
            else:
                # full-source Brandes: stream the running total in the
                # serial kernel's ascending source order
                sweep.stream = True
                sweep.covers_all = True
            demanding.append(node)
    for node in algo_nodes:
        if (
            node.spec.name == "bfs"
            and node.mode != "incremental"
            and sweep.covers_all
            and node.params["max_depth"] is None
        ):
            source = encode_source(csr, node.params["source"])
            node.demand = {"kind": "bfs", "source": source}
            sweep.dist_sources.add(source)
            demanding.append(node)

    if demanding:
        if sweep.covers_all:
            sweep.sources = list(range(n))
        else:
            seen: set[int] = set()
            for node in demanding:
                for source in node.demand.get("sources", ()):
                    if source not in seen:
                        seen.add(source)
                        sweep.sources.append(source)
        sweep.node.key = "sweep[{}:{} sources]".format(
            "+".join(dict.fromkeys(node.spec.name for node in demanding)),
            len(sweep.sources),
        )

    # -- modes: sweep-covered nodes bypass their kernels; everything else is
    #    "inline" (its kernel on the coordinator) -------------------------- #
    for node in demanding:
        node.mode = "sweep"
        node.deps = (sweep.node,)
    # -- derive nodes: views shared by the kernels that read them ---------- #
    derive_nodes: list[Node] = []
    shared: dict[str, Node] = {}

    def derived(key: str) -> Node:
        if key not in shared:
            shared[key] = Node(key=key, kind="derive")
            derive_nodes.append(shared[key])
        return shared[key]

    for node in algo_nodes:
        if node.mode != "inline":
            continue
        if node.spec.name in _UND_CONSUMERS:
            node.deps += (derived("und-csr"),)
        if node.spec.from_triangles is not None:
            # one per-vertex triangle pass per plan: its value lives on the
            # node and dies with the plan
            node.deps += (derived("triangle-counts"),)
        if node.spec.name == "degree":
            node.deps += (derived("degrees"),)

    return CompiledPlan(
        bindings=bindings,
        algo_nodes=algo_nodes,
        derive_nodes=derive_nodes,
        sweep=sweep if demanding else None,
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
def sweep_products(backend, csr, payload):
    """The fused sweep's per-source product loop — the one place it exists,
    for the coordinator's inline sweep and for
    :meth:`~repro.session.scheduler.PlanWorker.run_sweep`.

    ``payload`` is a list of ``(source, want_delta, want_dists)`` tuples;
    the backend's block-wise :meth:`~KernelBackend.sweep` grows a Brandes
    traversal where a betweenness demand needs the dependency vector and a
    plain BFS tree otherwise, and each source yields ``(stats, delta | None,
    dists | None)`` in payload order: integer-exact stats, the delta still
    in the backend's native form, distances as a plain list.
    """
    trees = backend.sweep(
        csr,
        [source for source, _, _ in payload],
        {source for source, want_delta, _ in payload if want_delta},
    )
    for (_, _, want_dists), (tree, delta) in zip(payload, trees):
        yield (
            backend.tree_stats(tree),
            delta,
            backend.tree_distances(tree) if want_dists else None,
        )


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
        batches = [sweep_products(backend, csr, payload(sweep.sources))]
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


def _finalise_from_sweep(
    node: Node, sweep: SweepPlan, csr: "CSRGraph", backend: "KernelBackend"
) -> Any:
    """Shape one sweep-covered request's values from the shared products —
    bit-identical to the matching runner (see module docstring)."""
    demand = node.demand
    kind = demand["kind"]
    n = csr.n
    if kind == "closeness":
        values = [
            closeness_value(n, sweep.stats[v][0], sweep.stats[v][1]) for v in range(n)
        ]
        return csr.decode(values)
    if kind == "diameter":
        return max((sweep.stats[s][2] for s in demand["sources"]), default=0)
    if kind == "betweenness":
        totals = sweep.stream_total
        if not demand["stream"]:
            totals = None
            for source in demand["sources"]:
                # re-sum in this request's own global source order: the
                # serial kernel's addition sequence, on the native vectors
                totals = backend.add_delta(totals, sweep.deltas[source])
        return csr.decode(
            apply_betweenness_scale(
                backend.tree_delta(totals), n, node.params["normalized"], demand["scale"]
            )
        )
    if kind == "bfs":
        return decode("bfs", csr, sweep.dists[demand["source"]])
    raise AssertionError(f"unknown sweep demand {kind!r}")  # pragma: no cover


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
    builds_before = handle.builds
    # thread-local deltas: concurrent plans in one process (the graph
    # service) must each report only their own forks and writes
    pool_starts_before = _pool_starts()
    writes_before = snapshot_store.saves_in_thread()

    tick = time.perf_counter()
    csr = handle.snapshot()
    snapshot_seconds = time.perf_counter() - tick
    snapshot_source = handle.snapshot_source
    delta_edges = handle._delta_edges
    snapshot_notes = handle.consume_snapshot_notes()

    # pre-serve dynamic maintainers over the delta journal before lowering:
    # served requests compile to already-done "incremental" nodes, so they
    # never pull a sweep, a derive view or a pool into existence
    incremental_served: dict[str, tuple[Any, float, str]] = {}
    for spec, params in plan._requests:
        if spec.maintainer is None:
            continue
        key = _algo_key(spec.name, params)
        if key in incremental_served:
            continue
        served = handle._incremental_serve(spec.name, spec.maintainer, params, csr, backend)
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
    snapshot_fresh = snapshot_source == "heap"
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
                    node.value = _finalise_from_sweep(node, compiled.sweep, csr, backend)
                elif spec.from_triangles is not None:
                    node.value = spec.from_triangles(csr, derived["triangle-counts"])
                elif spec.dense is not None:
                    # the runner's two steps, keeping its vector to seed
                    # the maintainer store
                    node.dense = spec.dense(csr, backend, params)
                    node.value = decode(spec.maintainer, csr, node.dense)
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
            # incremental store so the *next* run after mutations can serve
            # it from the journal (idempotent for duplicate bindings)
            if spec.maintainer is not None and node.mode != "incremental":
                handle._incremental_record(spec.name, params, node.value, csr, node.dense)

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
                        snapshot_source=snapshot_source,
                        parallelism=result_parallelism,
                        delta_edges=delta_edges,
                    ),
                    notes=node.notes + snapshot_notes,
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

    computed_total = 0
    reused_total = 0
    for result in results:
        for node in result.nodes:
            if node.status == "computed":
                computed_total += 1
            else:
                reused_total += 1
    journal = handle.journal
    return AnalysisReport(
        results=results,
        provenance=Provenance(
            representation=handle.representation,
            backend=backend.name,
            snapshot_source=snapshot_source,
            parallelism=parallelism,
            delta_edges=delta_edges,
        ),
        total_seconds=time.perf_counter() - started,
        snapshot_builds=handle.builds - builds_before,
        pool_starts=_pool_starts() - pool_starts_before,
        snapshot_writes=snapshot_store.saves_in_thread() - writes_before,
        nodes_computed=computed_total,
        nodes_reused=reused_total,
        journal=None
        if journal is None
        else {
            "pending": len(journal.records),
            "total": journal.total,
            "compactions": journal.compactions,
        },
    )
