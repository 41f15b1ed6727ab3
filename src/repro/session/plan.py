"""Multi-algorithm analysis plans over one shared snapshot.

An :class:`AnalysisPlan` is a chainable builder obtained from
:meth:`repro.session.GraphHandle.analyze`::

    report = (handle.analyze()
              .pagerank(damping=0.9)
              .components()
              .bfs(source=1)
              .triangles()
              .run())

``run()`` acquires the handle's CSR snapshot **once**, resolves the
session's kernel backend **once**, and executes every requested algorithm
against that shared physical core through the kernel-level entry points of
:mod:`repro.algorithms` — so a batch of heterogeneous analyses pays for
extraction, snapshot encoding and backend scratch a single time.  Results
come back as an :class:`~repro.session.AnalysisReport`.

With session ``parallelism > 1``, ``run()`` is a **plan-level scheduler**:
the whole batch executes over (at most) one worker pool and one persisted
snapshot file.  Algorithms that have a superstep program (degree, pagerank,
components, bfs) install it on the pool's reused workers — one fork per
plan, not per request; pagerank/components/bfs require a symmetric snapshot
and fall back to the serial kernel (with a note on the result) on directed
graphs, because the superstep programs gather from out-neighbors, and
requests whose parameters the superstep programs cannot honor — bfs with a
``max_depth`` limit, pagerank with non-default convergence settings —
likewise fall back with a note, so parameters in a result are always the
parameters that actually ran.  Embarrassingly parallel direct kernels
(triangles, closeness, sampled betweenness, diameter) run **chunk-parallel**
across the same pool: each worker runs the backend kernel over its share of
the shared mmap'd snapshot and the master merges partials in partition
order.  Remaining serial-kernel requests are dispatched *concurrently*
across the worker budget (or inline when nothing else needs the pool).
Degree, components and bfs superstep results are canonicalised to match the
serial kernels exactly; superstep pagerank runs 20 fixed iterations and its
note says so; chunk-parallel and task-dispatched results are bit-identical
to the serial kernels (including float kernels) and carry no note.  With
``parallelism == 1`` every result is the exact value the matching free
function returns — bit-identical, including float kernels, since both sides
call the same backend kernel on the same snapshot.  Per-result
``scheduled``/engine fields and the report's ``pool_starts`` /
``snapshot_writes`` counters record how the batch actually executed.

The registry :data:`PLAN_ALGORITHMS` is the single source of truth for what
a plan (and the CLI's repeatable ``--algo`` flag) can request.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.algorithms.bfs import distances_kernel
from repro.algorithms.centrality import (
    apply_betweenness_scale,
    betweenness_kernel,
    betweenness_sources,
    closeness_kernel,
)
from repro.algorithms.connected_components import components_kernel
from repro.algorithms.degree import degrees_kernel
from repro.algorithms.kcore import core_numbers_kernel
from repro.algorithms.label_propagation import label_propagation_kernel
from repro.algorithms.pagerank import pagerank_kernel
from repro.algorithms.shortest_paths import diameter_kernel, diameter_sample_indexes
from repro.algorithms.similarity import SCORE_NAMES, link_predictions_kernel
from repro.algorithms.triangles import average_clustering_kernel, count_triangles_kernel
from repro.exceptions import RepresentationError, UsageError
from repro.graph import snapshot_store
from repro.session.report import AnalysisReport, AnalysisResult, Provenance
from repro.vertexcentric.parallel import partition_range, pool_starts_in_thread
from repro.vertexcentric.programs import (
    run_connected_components,
    run_degree,
    run_pagerank,
    run_sssp,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.api import Graph, VertexId
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph
    from repro.session.session import GraphHandle

#: sentinel marking a parameter that must be supplied by the caller
REQUIRED = object()

#: superstep pagerank runs a fixed iteration count (the engine has no
#: convergence test); the note on its results quotes this number
SUPERSTEP_PAGERANK_ITERATIONS = 20


def _encode_source(csr: "CSRGraph", source: "VertexId") -> int:
    if not csr.has_vertex(source):
        raise RepresentationError(f"BFS source {source!r} is not in the graph")
    return csr.index(source)


def canonical_component_labels(labels: dict) -> dict:
    """Relabel a component partition with 0-based integers in
    first-appearance order.  ``run_connected_components`` returns values in
    snapshot vertex order, so on symmetric graphs this reproduces the serial
    kernel's numbering exactly."""
    canonical: dict[Any, int] = {}
    return {vertex: canonical.setdefault(label, len(canonical)) for vertex, label in labels.items()}


# --------------------------------------------------------------------------- #
# kernel runners: (csr, backend, params) -> decoded values, shaped exactly
# like the matching repro.algorithms free function's return value
# --------------------------------------------------------------------------- #
def _kernel_degree(csr, backend, params):
    return csr.decode(degrees_kernel(csr, backend=backend))


def _kernel_pagerank(csr, backend, params):
    return csr.decode(
        pagerank_kernel(
            csr,
            damping=params["damping"],
            max_iterations=params["max_iterations"],
            tolerance=params["tolerance"],
            backend=backend,
        )
    )


def _kernel_components(csr, backend, params):
    return csr.decode(components_kernel(csr, backend=backend))


def _kernel_bfs(csr, backend, params):
    src = _encode_source(csr, params["source"])
    distances = distances_kernel(csr, src, max_depth=params["max_depth"], backend=backend)
    ids = csr.external_ids
    return {ids[v]: d for v, d in enumerate(distances) if d >= 0}


def _kernel_kcore(csr, backend, params):
    return csr.decode(core_numbers_kernel(csr, backend=backend))


def _kernel_triangles(csr, backend, params):
    return count_triangles_kernel(csr, backend=backend)


def _kernel_clustering(csr, backend, params):
    return average_clustering_kernel(csr, backend=backend)


def _kernel_label_propagation(csr, backend, params):
    labels = label_propagation_kernel(
        csr, max_iterations=params["max_iterations"], seed=params["seed"], backend=backend
    )
    ids = csr.external_ids
    return {ids[v]: ids[label] for v, label in enumerate(labels)}


def _kernel_closeness(csr, backend, params):
    return csr.decode(closeness_kernel(csr, backend=backend))


def _kernel_betweenness(csr, backend, params):
    return csr.decode(
        betweenness_kernel(
            csr,
            normalized=params["normalized"],
            sample_size=params["sample_size"],
            seed=params["seed"],
            backend=backend,
        )
    )


def _kernel_diameter(csr, backend, params):
    return diameter_kernel(csr, samples=params["samples"], seed=params["seed"], backend=backend)


def _kernel_link_predictions(csr, backend, params):
    ids = csr.external_ids
    return [
        (ids[iu], ids[iv], value)
        for iu, iv, value in link_predictions_kernel(
            csr, k=params["k"], score=params["score"], backend=backend
        )
    ]


# --------------------------------------------------------------------------- #
# superstep runners:
# (graph, parallelism, snapshot_path, backend_name, params, pool)
# -> values canonicalised to the serial kernels' shape.  ``pool`` is the
# plan's shared worker pool; the coordinator installs the program on it
# instead of forking processes of its own.
# --------------------------------------------------------------------------- #
def _superstep_degree(graph, parallelism, path, backend, params, pool=None):
    values, _ = run_degree(
        graph, parallelism=parallelism, snapshot_path=path, backend=backend, pool=pool
    )
    return values


def _superstep_pagerank(graph, parallelism, path, backend, params, pool=None):
    values, _ = run_pagerank(
        graph,
        iterations=SUPERSTEP_PAGERANK_ITERATIONS,
        damping=params["damping"],
        parallelism=parallelism,
        snapshot_path=path,
        backend=backend,
        pool=pool,
    )
    return values


def _pagerank_superstep_params_ok(params) -> str | None:
    """The superstep engine has fixed iterations and no convergence test, so
    only a default-convergence request may be routed to it — anything else
    must run the serial kernel to honor the caller's parameters."""
    if params["max_iterations"] == 50 and params["tolerance"] == 1.0e-9:
        return None
    return (
        "note: pagerank with custom max_iterations/tolerance runs on the "
        "serial kernel (the superstep engine has fixed iterations)"
    )


def _bfs_superstep_params_ok(params) -> str | None:
    if params["max_depth"] is None:
        return None
    return "note: bfs with a max_depth limit has no superstep program; running serial kernel"


def _superstep_components(graph, parallelism, path, backend, params, pool=None):
    raw, _ = run_connected_components(
        graph, parallelism=parallelism, snapshot_path=path, backend=backend, pool=pool
    )
    return canonical_component_labels(raw)


def _superstep_bfs(graph, parallelism, path, backend, params, pool=None):
    with_unreachable, _ = run_sssp(
        graph,
        params["source"],
        parallelism=parallelism,
        snapshot_path=path,
        backend=backend,
        pool=pool,
    )
    return {v: d for v, d in with_unreachable.items() if d is not None}


# --------------------------------------------------------------------------- #
# chunk runners (master half): (csr, backend, params, pool) -> decoded values.
# Each splits the work along the pool's fixed partitions (vertex ranges for
# triangles/closeness, contiguous slices of the seeded source list for
# betweenness/diameter), runs the worker half from
# repro.session.scheduler.CHUNK_RUNNERS over the shared mmap'd snapshot, and
# merges partials in partition order — integer merges are exact, float merges
# replay the serial kernels' flat left-to-right accumulation, so results are
# bit-identical to the serial path.
# --------------------------------------------------------------------------- #
def _chunked_triangles(csr, backend, params, pool):
    return sum(pool.call("run_chunk", [("triangles", bounds) for bounds in pool.partitions]))


def _chunked_closeness(csr, backend, params, pool):
    partials = pool.call("run_chunk", [("closeness", bounds) for bounds in pool.partitions])
    return csr.decode([value for partial in partials for value in partial])


def _chunked_betweenness(csr, backend, params, pool):
    n = csr.n
    sources, scale_sources = betweenness_sources(csr, params["sample_size"], params["seed"])
    slices = [sources[lo:hi] for lo, hi in partition_range(len(sources), len(pool.partitions))]
    partials = pool.call("run_chunk", [("betweenness", chunk) for chunk in slices])
    totals = [0.0] * n
    for partial in partials:  # partition order == global source order
        for delta in partial:
            # same per-element left-to-right addition sequence as the serial
            # kernels' accumulation, so the merge stays bit-identical
            totals = [total + value for total, value in zip(totals, delta)]
    return csr.decode(apply_betweenness_scale(totals, n, params["normalized"], scale_sources))


def _betweenness_chunk_ok(params, csr) -> bool:
    # per-source contribution shipping is the price of bit-identity; it only
    # pays (and only bounds traffic) for genuinely sampled runs — anything
    # touching all n sources (unsampled, or sample_size >= n) stays on the
    # serial kernel
    sample_size = params["sample_size"]
    return sample_size is not None and 2 < csr.n and sample_size < csr.n


def _chunked_diameter(csr, backend, params, pool):
    sources = diameter_sample_indexes(csr, params["samples"], params["seed"])
    if not sources:
        return diameter_kernel(csr, samples=params["samples"], seed=params["seed"], backend=backend)
    slices = [sources[lo:hi] for lo, hi in partition_range(len(sources), len(pool.partitions))]
    return max(pool.call("run_chunk", [("diameter", chunk) for chunk in slices]), default=0)


# --------------------------------------------------------------------------- #
# validation helpers (raise UsageError: these are caller mistakes, reported
# as one-line messages, never tracebacks)
# --------------------------------------------------------------------------- #
def _validate_pagerank(params):
    damping = params["damping"]
    if not isinstance(damping, (int, float)) or not 0.0 < damping < 1.0:
        raise UsageError(f"pagerank: damping must be in (0, 1) (got {damping!r})")


def _validate_bfs(params):
    # a still-REQUIRED source is caught by add()'s missing-argument check
    # before any validator runs; only an explicit None reaches this
    if params["source"] is None:
        raise UsageError("bfs requires a source vertex (pass source=...)")


def _is_positive_int(value) -> bool:
    # bool is an int subclass; reject it explicitly (True would silently
    # mean "1 sample")
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _validate_betweenness(params):
    sample_size = params["sample_size"]
    if sample_size is not None and not _is_positive_int(sample_size):
        raise UsageError(
            f"betweenness: sample_size must be a positive integer or None "
            f"(got {sample_size!r})"
        )


def _validate_diameter(params):
    samples = params["samples"]
    if not _is_positive_int(samples):
        raise UsageError(f"diameter: samples must be a positive integer (got {samples!r})")


def _validate_link_predictions(params):
    if params["score"] not in SCORE_NAMES:
        raise UsageError(
            f"link_predictions: unknown score {params['score']!r}; "
            f"expected one of {', '.join(sorted(SCORE_NAMES))}"
        )


@dataclass(frozen=True)
class PlanAlgorithm:
    """Registry entry: how one algorithm name executes inside a plan."""

    name: str
    #: allowed parameter names -> default values (REQUIRED = must be given)
    defaults: dict[str, Any]
    #: serial path over the shared snapshot
    kernel: Callable[["CSRGraph", "KernelBackend", dict], Any]
    #: extra parameter validation (beyond unknown/missing checks)
    validate: Callable[[dict], None] | None = None
    #: process-parallel path, or None when no superstep program exists
    superstep: Callable[["Graph", int, str | None, str, dict], Any] | None = None
    #: superstep gathers from out-neighbors: exact only on symmetric graphs
    requires_symmetric: bool = False
    #: note attached to results whenever the superstep path is taken
    superstep_note: str | None = None
    #: params -> fallback note when the superstep program cannot honor these
    #: parameters (None = eligible); the request then runs the serial kernel
    superstep_params_ok: Callable[[dict], str | None] | None = None
    #: chunk-parallel path over the plan's shared worker pool, or None when
    #: the algorithm has no profitable/deterministic partitioning
    chunk: Callable[["CSRGraph", "KernelBackend", dict, Any], Any] | None = None
    #: (params, csr) -> whether this request may take the chunk path
    #: (None = always); ineligible requests run the serial kernel
    chunk_ok: Callable[[dict, "CSRGraph"], bool] | None = None
    #: name of this algorithm's dynamic maintainer in
    #: :data:`repro.incremental.MAINTAINERS`, or None when no incremental
    #: path exists.  When the handle's graph is journaled and a previous
    #: result plus a replayable journal window are available, routing serves
    #: the request incrementally instead of executing any kernel.
    maintainer: str | None = None


PLAN_ALGORITHMS: dict[str, PlanAlgorithm] = {
    spec.name: spec
    for spec in (
        PlanAlgorithm(
            "degree",
            defaults={},
            kernel=_kernel_degree,
            superstep=_superstep_degree,
        ),
        PlanAlgorithm(
            "pagerank",
            defaults={"damping": 0.85, "max_iterations": 50, "tolerance": 1.0e-9},
            kernel=_kernel_pagerank,
            validate=_validate_pagerank,
            superstep=_superstep_pagerank,
            requires_symmetric=True,
            superstep_params_ok=_pagerank_superstep_params_ok,
            superstep_note=(
                "note: pagerank via the superstep engine "
                f"({SUPERSTEP_PAGERANK_ITERATIONS} fixed iterations); "
                "low-order digits may differ from the serial kernel"
            ),
            maintainer="pagerank",
        ),
        PlanAlgorithm(
            "components",
            defaults={},
            kernel=_kernel_components,
            superstep=_superstep_components,
            requires_symmetric=True,
            maintainer="components",
        ),
        PlanAlgorithm(
            "bfs",
            defaults={"source": REQUIRED, "max_depth": None},
            kernel=_kernel_bfs,
            validate=_validate_bfs,
            superstep=_superstep_bfs,
            requires_symmetric=True,
            superstep_params_ok=_bfs_superstep_params_ok,
            maintainer="bfs",
        ),
        PlanAlgorithm("kcore", defaults={}, kernel=_kernel_kcore),
        PlanAlgorithm(
            "triangles", defaults={}, kernel=_kernel_triangles, chunk=_chunked_triangles
        ),
        PlanAlgorithm("clustering", defaults={}, kernel=_kernel_clustering),
        PlanAlgorithm(
            "label_propagation",
            defaults={"max_iterations": 20, "seed": 0},
            kernel=_kernel_label_propagation,
        ),
        PlanAlgorithm(
            "closeness", defaults={}, kernel=_kernel_closeness, chunk=_chunked_closeness
        ),
        PlanAlgorithm(
            "betweenness",
            defaults={"normalized": True, "sample_size": None, "seed": 0},
            kernel=_kernel_betweenness,
            validate=_validate_betweenness,
            chunk=_chunked_betweenness,
            chunk_ok=_betweenness_chunk_ok,
        ),
        PlanAlgorithm(
            "diameter",
            defaults={"samples": 10, "seed": 0},
            kernel=_kernel_diameter,
            validate=_validate_diameter,
            chunk=_chunked_diameter,
        ),
        PlanAlgorithm(
            "link_predictions",
            defaults={"k": 10, "score": "adamic_adar"},
            kernel=_kernel_link_predictions,
            validate=_validate_link_predictions,
        ),
    )
}


class AnalysisPlan:
    """Chainable batch of algorithm requests over one shared snapshot.

    Obtained from :meth:`repro.session.GraphHandle.analyze`; every request
    method returns the plan itself, and :meth:`run` executes the whole batch.
    """

    def __init__(self, handle: "GraphHandle") -> None:
        self._handle = handle
        self._requests: list[tuple[PlanAlgorithm, dict[str, Any]]] = []

    # ------------------------------------------------------------------ #
    # request builders
    # ------------------------------------------------------------------ #
    def add(self, name: str, **params: Any) -> "AnalysisPlan":
        """Request ``name`` with keyword parameters (the generic entry the
        named builder methods and the CLI's ``--algo`` flag go through)."""
        spec = PLAN_ALGORITHMS.get(name)
        if spec is None:
            raise UsageError(
                f"unknown algorithm {name!r}; expected one of "
                + ", ".join(sorted(PLAN_ALGORITHMS))
            )
        unknown = set(params) - set(spec.defaults)
        if unknown:
            raise UsageError(
                f"{name}: unexpected argument(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"accepted: {', '.join(sorted(spec.defaults)) or '(none)'}"
            )
        effective = dict(spec.defaults)
        effective.update(params)
        # missing-argument check strictly before any validator: validators
        # may inspect required params and must never see the REQUIRED
        # sentinel (a sentinel-typed crash instead of a UsageError)
        missing = [key for key, value in effective.items() if value is REQUIRED]
        if missing:
            raise UsageError(
                f"{name}: missing required argument(s) {', '.join(sorted(missing))}"
            )
        if spec.validate is not None:
            spec.validate(effective)
        self._requests.append((spec, effective))
        return self

    def degree(self) -> "AnalysisPlan":
        return self.add("degree")

    def pagerank(
        self,
        damping: float = 0.85,
        max_iterations: int = 50,
        tolerance: float = 1.0e-9,
    ) -> "AnalysisPlan":
        return self.add(
            "pagerank", damping=damping, max_iterations=max_iterations, tolerance=tolerance
        )

    def components(self) -> "AnalysisPlan":
        return self.add("components")

    def bfs(self, source: "VertexId" = REQUIRED, max_depth: int | None = None) -> "AnalysisPlan":
        return self.add("bfs", source=source, max_depth=max_depth)

    def kcore(self) -> "AnalysisPlan":
        return self.add("kcore")

    def triangles(self) -> "AnalysisPlan":
        return self.add("triangles")

    def clustering(self) -> "AnalysisPlan":
        return self.add("clustering")

    def label_propagation(self, max_iterations: int = 20, seed: int = 0) -> "AnalysisPlan":
        return self.add("label_propagation", max_iterations=max_iterations, seed=seed)

    def closeness(self) -> "AnalysisPlan":
        return self.add("closeness")

    def betweenness(
        self, normalized: bool = True, sample_size: int | None = None, seed: int = 0
    ) -> "AnalysisPlan":
        return self.add("betweenness", normalized=normalized, sample_size=sample_size, seed=seed)

    def diameter(self, samples: int = 10, seed: int = 0) -> "AnalysisPlan":
        return self.add("diameter", samples=samples, seed=seed)

    def link_predictions(self, k: int = 10, score: str = "adamic_adar") -> "AnalysisPlan":
        return self.add("link_predictions", k=k, score=score)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._requests)

    def requests(self) -> list[tuple[str, dict[str, Any]]]:
        """The queued ``(algorithm, effective params)`` pairs, in order."""
        return [(spec.name, dict(params)) for spec, params in self._requests]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _route(
        self, csr, parallelism: int, *, oc: bool = False
    ) -> list[tuple[str, list[str]]]:
        """Decide each request's execution mode once for the whole batch.

        Modes: ``"superstep"`` (process-parallel vertex-centric program over
        the shared pool), ``"chunks"`` (chunk-parallel direct kernel over the
        shared pool), ``"task"`` (whole-graph serial kernel, dispatched
        concurrently to a single pool worker), ``"inline"`` (serial kernel on
        the master — always the mode at ``parallelism == 1``).  Symmetry is a
        property of the shared snapshot, checked lazily only when a
        symmetric-requiring program survives the parameter check.

        ``oc`` (out-of-core: the session's store sharded this snapshot)
        changes the worker contract — each worker maps only its own shard, so
        only shard-local work may go to the pool.  Superstep programs qualify
        (their gathers and neighbor walks stay inside the worker's own vertex
        range; frontier deltas stream through the executor's message pipes).
        Chunk kernels and whole-graph task kernels need adjacency outside the
        worker's shard, so they run inline on the coordinator (which already
        holds the heap snapshot it built), with a note saying why.  ``oc``
        also routes superstep work to the pool at ``parallelism == 1`` — the
        pool's geometry is the shard table, not the session's worker budget.
        """
        symmetric: bool | None = None
        routed: list[tuple[str, list[str]]] = []
        for spec, params in self._requests:
            notes: list[str] = []
            mode = "inline"
            if (parallelism > 1 or oc) and csr.n > 0:
                if oc and spec.superstep is None:
                    notes.append(
                        f"note: {spec.name} needs whole-graph adjacency, which "
                        "out-of-core workers do not map; running inline on the "
                        "coordinator"
                    )
                    routed.append((mode, notes))
                    continue
                if spec.superstep is not None:
                    param_note = (
                        spec.superstep_params_ok(params)
                        if spec.superstep_params_ok is not None
                        else None
                    )
                    if param_note is not None:
                        notes.append(param_note)
                        mode = "task"
                    else:
                        if spec.requires_symmetric and symmetric is None:
                            symmetric = csr.is_symmetric()
                        if spec.requires_symmetric and not symmetric:
                            notes.append(
                                f"note: the {spec.name} superstep program requires a "
                                "symmetric graph; running serial kernel"
                            )
                            mode = "task"
                        else:
                            mode = "superstep"
                            if spec.superstep_note:
                                notes.append(spec.superstep_note)
                elif spec.chunk is not None and (
                    spec.chunk_ok is None or spec.chunk_ok(params, csr)
                ):
                    mode = "chunks"
                elif spec.chunk is not None:
                    notes.append(
                        f"note: {spec.name} with these parameters is not "
                        "chunk-parallel eligible (requires sampling a strict "
                        "subset of sources); running serial kernel"
                    )
                    mode = "task"
                else:
                    notes.append(
                        f"note: {spec.name} has no superstep program; running serial kernel"
                    )
                    mode = "task"
                if oc and mode == "task":
                    # the serial fallback needs the whole graph, which
                    # out-of-core workers do not map — run it on the
                    # coordinator instead of a pool worker
                    notes.append(
                        "note: out-of-core workers map only their own shard; "
                        "running inline on the coordinator"
                    )
                    mode = "inline"
            routed.append((mode, notes))
        return routed

    def run(self, compiled: bool | None = None) -> AnalysisReport:
        """Execute every request over one shared snapshot and backend.

        By default (session ``compile_plans=True``) the request list is
        lowered through the optimizing plan compiler
        (:mod:`repro.session.compiler`): requests are deduplicated by
        structural key, source sweeps are shared across closeness / diameter
        / sampled-betweenness / bfs, and every result carries per-node
        provenance.  Results are bit-identical to the uncompiled path.
        ``compiled=False`` forces the PR-5 per-request path below (the
        reference the compiler is tested against); ``compiled=True`` forces
        compilation regardless of the session default.

        With session ``parallelism > 1`` the whole batch is scheduled over
        (at most) **one** worker pool and **one** persisted snapshot file:
        superstep-routed requests install their programs on the same reused
        workers, chunk-parallel direct kernels split along the pool's fixed
        partitions, and remaining serial-kernel requests are dispatched
        concurrently across the worker budget.  The pool is started only when
        at least one request uses workers (a lone serial request runs inline,
        as at ``parallelism == 1``), and a store-less session writes the
        workers' snapshot file to a tempfile exactly once per plan.
        """
        if not self._requests:
            raise UsageError(
                "analysis plan is empty: chain at least one algorithm "
                "request (e.g. .pagerank()) before run()"
            )
        if compiled is None:
            compiled = getattr(self._handle.session, "compile_plans", True)
        if compiled:
            from repro.session.compiler import run_compiled

            return run_compiled(self)
        handle = self._handle
        session = handle.session
        backend = session.backend
        parallelism = session.parallelism

        started = time.perf_counter()
        builds_before = handle.builds
        # thread-local deltas: concurrent plans in one process (the graph
        # service) must each report only their own forks and writes
        pool_starts_before = pool_starts_in_thread()
        writes_before = snapshot_store.saves_in_thread()
        csr = handle.snapshot()
        snapshot_source = handle.snapshot_source
        delta_edges = handle._delta_edges
        snapshot_notes = handle.consume_snapshot_notes()

        # out-of-core: the session store's sharding policy decides once per
        # plan; a non-None plan is the exact shard geometry — reused as the
        # worker partitions, so shard files and partitions align one-to-one
        oc_ranges = None
        if session.store is not None and session.store.sharded:
            oc_ranges = session.store.shard_plan(csr)
        oc = oc_ranges is not None

        routed = self._route(csr, parallelism, oc=oc)
        # incremental serving: a maintainable request with a remembered
        # previous result and a replayable journal window never touches a
        # kernel — the dynamic maintainer repairs the old values instead
        incremental: dict[int, tuple[Any, float]] = {}
        for index, (spec, params) in enumerate(self._requests):
            if spec.maintainer is None:
                continue
            served = handle._incremental_serve(
                spec.name, spec.maintainer, params, csr, backend
            )
            if served is not None:
                values, seconds, note = served
                incremental[index] = (values, seconds)
                routed[index] = ("incremental", [note])
        modes = [mode for mode, _ in routed]
        # one concurrent task cannot beat running it inline; require either a
        # pool-parallel request or at least two concurrent tasks before
        # paying for worker processes
        wants_pool = (
            "superstep" in modes or "chunks" in modes or modes.count("task") >= 2
        )
        if not wants_pool:
            routed = [
                ("inline" if mode == "task" else mode, notes) for mode, notes in routed
            ]

        pool = None
        release_pool = None
        snapshot_path: str | None = None
        cleanup_path: str | None = None
        try:
            if wants_pool:
                # one snapshot file per plan: the store's content-checked
                # file when configured, else a single tempfile for the run.
                # Out-of-core plans persist the sharded form (one manifest +
                # segment files) and hand its geometry to the pool as the
                # explicit worker partitions.
                if session.store is not None:
                    snapshot_path = handle.persist()
                else:
                    fd, snapshot_path = tempfile.mkstemp(suffix=".csr", prefix="ggplan-")
                    os.close(fd)
                    cleanup_path = snapshot_path
                    csr.save(snapshot_path)
                pool, release_pool = session.acquire_pool(
                    csr.n,
                    snapshot_path,
                    csr.content_hash,
                    backend.name,
                    partitions=oc_ranges,
                    sharded=oc,
                )

            # independent serial-kernel requests first, load-balanced across
            # the whole worker budget; results keep their plan positions
            task_results: dict[int, tuple[float, Any]] = {}
            if pool is not None:
                task_indexes = [
                    index for index, (mode, _) in enumerate(routed) if mode == "task"
                ]
                if task_indexes:
                    payloads = [
                        (self._requests[index][0].name, self._requests[index][1])
                        for index in task_indexes
                    ]
                    for index, outcome in zip(
                        task_indexes, pool.map_tasks("run_task", payloads)
                    ):
                        if outcome[0] == "error":
                            # caller mistakes keep their original type and
                            # one-line message, exactly as if run inline
                            raise outcome[1]
                        task_results[index] = outcome[1:]

            results: list[AnalysisResult] = []
            seen_labels: dict[str, int] = {}
            for position, ((spec, params), (mode, notes)) in enumerate(
                zip(self._requests, routed)
            ):
                tick = time.perf_counter()
                if mode == "superstep":
                    values = spec.superstep(
                        handle.graph, parallelism, snapshot_path, backend.name, params, pool
                    )
                    seconds = time.perf_counter() - tick
                    engine = "superstep"
                elif mode == "chunks":
                    values = spec.chunk(csr, backend, params, pool)
                    seconds = time.perf_counter() - tick
                    engine = "chunks"
                elif mode == "task":
                    # executed concurrently above; seconds are worker-measured
                    seconds, values = task_results[position]
                    engine = "kernel"
                elif mode == "incremental":
                    values, seconds = incremental[position]
                    engine = "incremental"
                else:
                    values = spec.kernel(csr, backend, params)
                    seconds = time.perf_counter() - tick
                    engine = "kernel"
                if spec.maintainer is not None and mode != "incremental":
                    # remember the fresh result so future plans (and
                    # handle.refresh()) can maintain it over deltas
                    handle._incremental_record(spec.name, params, values, csr)

                count = seen_labels.get(spec.name, 0) + 1
                seen_labels[spec.name] = count
                label = spec.name if count == 1 else f"{spec.name}#{count}"
                pooled = mode in ("superstep", "chunks")
                if oc and mode == "superstep":
                    # out-of-core execution: workers mapped per-shard segment
                    # files, and the worker count is the shard count
                    result_source = "shard-mmap"
                    result_parallelism = len(pool.partitions)
                    result_shards = len(oc_ranges)
                else:
                    result_source = snapshot_source
                    result_parallelism = parallelism if pooled else 1
                    result_shards = 0
                results.append(
                    AnalysisResult(
                        algorithm=spec.name,
                        label=label,
                        params={k: v for k, v in params.items()},
                        values=values,
                        seconds=seconds,
                        engine=engine,
                        provenance=Provenance(
                            representation=handle.representation,
                            backend=backend.name,
                            snapshot_source=result_source,
                            parallelism=result_parallelism,
                            shards=result_shards,
                            delta_edges=delta_edges,
                        ),
                        notes=tuple(notes) + snapshot_notes,
                        scheduled="inline" if mode in ("inline", "incremental") else "pool",
                    )
                )

            worker_memory: list[dict[str, int]] = []
            if pool is not None and oc:
                worker_memory = pool.call(
                    "memory_stats", [None] * len(pool.partitions)
                )
        finally:
            if release_pool is not None:
                release_pool()
            if cleanup_path is not None:
                try:
                    os.unlink(cleanup_path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

        journal = handle.journal
        return AnalysisReport(
            results=results,
            provenance=Provenance(
                representation=handle.representation,
                backend=backend.name,
                snapshot_source="shard-mmap" if (oc and worker_memory) else snapshot_source,
                parallelism=parallelism,
                shards=len(oc_ranges) if oc else 0,
                delta_edges=delta_edges,
            ),
            total_seconds=time.perf_counter() - started,
            snapshot_builds=handle.builds - builds_before,
            pool_starts=pool_starts_in_thread() - pool_starts_before,
            snapshot_writes=snapshot_store.saves_in_thread() - writes_before,
            journal=(
                None
                if journal is None
                else {
                    "pending": len(journal.records),
                    "total": journal.total,
                    "compactions": journal.compactions,
                }
            ),
            worker_memory=worker_memory,
        )
