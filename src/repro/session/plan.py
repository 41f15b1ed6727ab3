"""Multi-algorithm analysis plans over one shared snapshot.

An :class:`AnalysisPlan` is a chainable builder obtained from
:meth:`repro.session.GraphHandle.analyze`::

    report = (handle.analyze()
              .pagerank(damping=0.9)
              .components()
              .bfs(source=1)
              .triangles()
              .run())

``run()`` lowers the request list through the plan compiler
(:mod:`repro.session.compiler`) — the only executor: the handle's CSR
snapshot is acquired **once**, the session's kernel backend resolved
**once**, structurally identical requests collapse to one DAG node, and
closeness / diameter / betweenness / bfs share one fused per-source sweep —
so a batch of heterogeneous analyses pays for extraction, snapshot encoding,
backend scratch and source traversals a single time.  Results come back as
an :class:`~repro.session.AnalysisReport`.

Every value equals what this registry's per-request runner
``PLAN_ALGORITHMS[name].kernel(csr, backend, params)`` returns — exactly,
float kernels included.  The registry only points at the algorithms'
functions: each lives in its algorithm's :mod:`repro.algorithms` module
beside its parameter check, and the matching free function is
``graph.snapshot()`` + that check + that runner.  What the compiler knows
of an algorithm is a field here (``views``, ``demand``, ``finish``).
Session
``parallelism`` never changes the DAG or a value: at ``parallelism > 1`` the
fused sweep (split by source) and the ``triangle-counts`` node (split by
vertex range) run as slices on one worker pool over one persisted snapshot
file, and everything else runs inline exactly as at ``parallelism == 1``.
No vertex-centric program runs inside a plan (those engines are
:mod:`repro.vertexcentric` / :mod:`repro.giraph`, reached directly).
Per-result ``scheduled``/engine/notes fields and the report's
``pool_starts`` / ``snapshot_writes`` counters record how the batch actually
executed.

The registry :data:`PLAN_ALGORITHMS` is the single source of truth for what
a plan (and the CLI's repeatable ``--algo`` flag) can request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.algorithms.bfs import (
    bfs_demand,
    bfs_finish,
    bfs_runner,
    bfs_values,
    bfs_vector,
    check_bfs,
)
from repro.algorithms.centrality import (
    betweenness_demand,
    betweenness_finish,
    betweenness_runner,
    check_betweenness,
    closeness_demand,
    closeness_finish,
    closeness_runner,
)
from repro.algorithms.connected_components import components_runner, components_vector
from repro.algorithms.degree import degree_runner
from repro.algorithms.kcore import kcore_runner
from repro.algorithms.label_propagation import check_label_propagation, label_propagation_runner
from repro.algorithms.pagerank import check_pagerank, pagerank_runner, pagerank_vector
from repro.algorithms.shortest_paths import (
    check_diameter,
    diameter_demand,
    diameter_finish,
    diameter_runner,
)
from repro.algorithms.similarity import check_link_predictions, link_predictions_runner
from repro.algorithms.triangles import (
    clustering_from_counts,
    clustering_runner,
    triangle_counts_vector,
    triangles_from_counts,
    triangles_runner,
)
from repro.exceptions import UsageError
from repro.graph.kernel import CSRGraph
from repro.session.compiler import run_compiled
from repro.session.report import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.api import VertexId
    from repro.graph.backend.python_backend import KernelBackend
    from repro.session.session import GraphHandle

#: sentinel marking a parameter that must be supplied by the caller
REQUIRED = object()


@dataclass(frozen=True)
class PlanAlgorithm:
    """Registry entry: how one algorithm name executes inside a plan."""

    name: str
    #: allowed parameter names -> default values (REQUIRED = must be given)
    defaults: dict[str, Any]
    #: the algorithm's runner in its :mod:`repro.algorithms` module — the
    #: one code computing it, for plans and the free function alike
    kernel: Callable[["CSRGraph", "KernelBackend", dict], Any]
    #: maintainable algorithms: the per-dense-index vector its maintainer
    #: carries ...
    dense: Callable[["CSRGraph", "KernelBackend", dict], list] | None = None
    #: ... and ``(csr, vector) -> value``, the one step from that vector to
    #: the reported value: the runner is ``shape(csr, dense(...))``, and a
    #: plan's inline node and an incremental serve shape the same way
    shape: Callable[["CSRGraph", list], Any] | None = None
    #: the module's parameter check (beyond unknown/missing), run once by
    #: ``add()``; runners trust it
    validate: Callable[[dict], None] | None = None
    #: name of this algorithm's dynamic maintainer in
    #: :data:`repro.incremental.MAINTAINERS`, or None when no incremental
    #: path exists.  When the handle's graph is journaled and a previous
    #: vector plus a replayable journal window are available, routing serves
    #: the request incrementally instead of executing any kernel.  Entries
    #: naming one maintainer (``triangles``, ``clustering``) read one vector.
    maintainer: str | None = None
    #: the derive views its kernel reads, once per plan: ``und-csr``,
    #: ``degrees``, ``triangle-counts`` (also that maintainer's vector)
    views: tuple[str, ...] = ()
    #: sweep algorithms (:mod:`repro.algorithms.centrality`): what the
    #: request asks of the source sweep (None: its runner runs inline) ...
    demand: Callable[["CSRGraph", dict], Any] | None = None
    #: ... and its value from the demand's answer, in a runner and a plan
    finish: Callable[["CSRGraph", "KernelBackend", dict, Any], Any] | None = None


PLAN_ALGORITHMS: dict[str, PlanAlgorithm] = {
    spec.name: spec
    for spec in (
        PlanAlgorithm("degree", defaults={}, kernel=degree_runner, views=("degrees",)),
        PlanAlgorithm(
            "pagerank",
            defaults={"damping": 0.85, "max_iterations": 50, "tolerance": 1.0e-9},
            kernel=pagerank_runner,
            dense=pagerank_vector,
            shape=CSRGraph.decode,
            validate=check_pagerank,
            maintainer="pagerank",
        ),
        PlanAlgorithm(
            "components",
            defaults={},
            kernel=components_runner,
            dense=components_vector,
            shape=CSRGraph.decode,
            maintainer="components",
        ),
        PlanAlgorithm(
            "bfs",
            defaults={"source": REQUIRED, "max_depth": None},
            kernel=bfs_runner,
            dense=bfs_vector,
            shape=bfs_values,
            validate=check_bfs,
            maintainer="bfs",
            demand=bfs_demand,
            finish=bfs_finish,
        ),
        PlanAlgorithm("kcore", defaults={}, kernel=kcore_runner, views=("und-csr",)),
        PlanAlgorithm(
            "triangles",
            defaults={},
            kernel=triangles_runner,
            dense=triangle_counts_vector,
            shape=triangles_from_counts,
            maintainer="triangle-counts",
            views=("und-csr", "triangle-counts"),
        ),
        PlanAlgorithm(
            "clustering",
            defaults={},
            kernel=clustering_runner,
            dense=triangle_counts_vector,
            shape=clustering_from_counts,
            maintainer="triangle-counts",
            views=("und-csr", "triangle-counts"),
        ),
        PlanAlgorithm(
            "label_propagation",
            defaults={"max_iterations": 20, "seed": 0},
            kernel=label_propagation_runner,
            validate=check_label_propagation,
        ),
        PlanAlgorithm(
            "closeness",
            defaults={},
            kernel=closeness_runner,
            demand=closeness_demand,
            finish=closeness_finish,
        ),
        PlanAlgorithm(
            "betweenness",
            defaults={"normalized": True, "sample_size": None, "seed": 0},
            kernel=betweenness_runner,
            validate=check_betweenness,
            demand=betweenness_demand,
            finish=betweenness_finish,
        ),
        PlanAlgorithm(
            "diameter",
            defaults={"samples": 10, "seed": 0},
            kernel=diameter_runner,
            validate=check_diameter,
            demand=diameter_demand,
            finish=diameter_finish,
        ),
        PlanAlgorithm(
            "link_predictions",
            defaults={"k": 10, "score": "adamic_adar"},
            kernel=link_predictions_runner,
            validate=check_link_predictions,
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
    def run(self) -> AnalysisReport:
        """Execute every request over one shared snapshot and backend.

        The request list is lowered through the optimizing plan compiler
        (:func:`repro.session.compiler.run_compiled`): requests are
        deduplicated by structural key, source sweeps are shared across
        closeness / diameter / betweenness / bfs, and every result carries
        per-node provenance.  Each value equals its per-request kernel
        runner's (``PLAN_ALGORITHMS[name].kernel``) exactly.

        With session ``parallelism > 1`` the same DAG is placed over (at
        most) **one** worker pool and **one** persisted snapshot file: the
        fused sweep is split by source and the ``triangle-counts`` node by
        vertex range, everything else runs inline.  The pool is started only
        when the plan holds one of those two nodes, and a store-less session
        writes the workers' snapshot file to a tempfile exactly once per plan.
        """
        if not self._requests:
            raise UsageError(
                "analysis plan is empty: chain at least one algorithm "
                "request (e.g. .pagerank()) before run()"
            )
        return run_compiled(self)
