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

Every value equals what this registry's per-request kernel runner
``PLAN_ALGORITHMS[name].kernel(csr, backend, params)`` returns — exactly,
float kernels included; the matching :mod:`repro.algorithms` free functions
call the same backend kernels on the same snapshot.  Session
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

from repro.algorithms.bfs import distances_kernel
from repro.algorithms.centrality import betweenness_kernel, check_sample_size, closeness_kernel
from repro.algorithms.connected_components import components_kernel
from repro.algorithms.degree import degrees_kernel
from repro.algorithms.kcore import core_numbers_kernel
from repro.algorithms.label_propagation import label_propagation_kernel
from repro.algorithms.pagerank import pagerank_kernel
from repro.algorithms.shortest_paths import check_samples, diameter_kernel
from repro.algorithms.similarity import SCORE_NAMES, link_predictions_kernel
from repro.algorithms.triangles import (
    average_clustering_kernel,
    clustering_from_counts,
    count_triangles_kernel,
)
from repro.exceptions import RepresentationError, UsageError
from repro.incremental.base import decode
from repro.session.compiler import run_compiled
from repro.session.report import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.api import VertexId
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.kernel import CSRGraph
    from repro.session.session import GraphHandle

#: sentinel marking a parameter that must be supplied by the caller
REQUIRED = object()


def _encode_source(csr: "CSRGraph", source: "VertexId") -> int:
    if not csr.has_vertex(source):
        raise RepresentationError(f"BFS source {source!r} is not in the graph")
    return csr.index(source)


# --------------------------------------------------------------------------- #
# kernel runners: (csr, backend, params) -> decoded values, shaped exactly
# like the matching repro.algorithms free function's return value
# --------------------------------------------------------------------------- #
def _kernel_degree(csr, backend, params):
    return csr.decode(degrees_kernel(csr, backend=backend))


# maintainable algorithms run in two steps: ``_dense_*`` is the kernel's
# per-dense-index vector — the form the dynamic maintainers carry, which an
# inline plan node hands to the handle's incremental record as it is — and
# the kernel runner is that vector decoded
def _dense_pagerank(csr, backend, params):
    return pagerank_kernel(
        csr,
        damping=params["damping"],
        max_iterations=params["max_iterations"],
        tolerance=params["tolerance"],
        backend=backend,
    )


def _dense_components(csr, backend, params):
    return components_kernel(csr, backend=backend)


def _dense_bfs(csr, backend, params):
    src = _encode_source(csr, params["source"])
    return distances_kernel(csr, src, max_depth=params["max_depth"], backend=backend)


def _decoded(maintainer, dense):
    def kernel(csr, backend, params):
        return decode(maintainer, csr, dense(csr, backend, params))

    return kernel


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


def _validate_betweenness(params):
    check_sample_size(params["sample_size"])


def _validate_diameter(params):
    check_samples(params["samples"])


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
    #: maintainable algorithms: the serial path's result still as the
    #: per-dense-index vector its maintainer carries — ``kernel`` is
    #: ``repro.incremental.decode`` of it
    dense: Callable[["CSRGraph", "KernelBackend", dict], list] | None = None
    #: extra parameter validation (beyond unknown/missing checks)
    validate: Callable[[dict], None] | None = None
    #: ``(csr, per-vertex triangle counts) -> value`` for the algorithms a
    #: plan answers from its one shared ``triangle-counts`` pass
    from_triangles: Callable[["CSRGraph", list], Any] | None = None
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
        ),
        PlanAlgorithm(
            "pagerank",
            defaults={"damping": 0.85, "max_iterations": 50, "tolerance": 1.0e-9},
            kernel=_decoded("pagerank", _dense_pagerank),
            dense=_dense_pagerank,
            validate=_validate_pagerank,
            maintainer="pagerank",
        ),
        PlanAlgorithm(
            "components",
            defaults={},
            kernel=_decoded("components", _dense_components),
            dense=_dense_components,
            maintainer="components",
        ),
        PlanAlgorithm(
            "bfs",
            defaults={"source": REQUIRED, "max_depth": None},
            kernel=_decoded("bfs", _dense_bfs),
            dense=_dense_bfs,
            validate=_validate_bfs,
            maintainer="bfs",
        ),
        PlanAlgorithm("kcore", defaults={}, kernel=_kernel_kcore),
        PlanAlgorithm(
            "triangles",
            defaults={},
            kernel=_kernel_triangles,
            # every triangle is counted at each of its three corners
            from_triangles=lambda csr, counts: sum(counts) // 3,
        ),
        PlanAlgorithm(
            "clustering",
            defaults={},
            kernel=_kernel_clustering,
            from_triangles=clustering_from_counts,
        ),
        PlanAlgorithm(
            "label_propagation",
            defaults={"max_iterations": 20, "seed": 0},
            kernel=_kernel_label_propagation,
        ),
        PlanAlgorithm("closeness", defaults={}, kernel=_kernel_closeness),
        PlanAlgorithm(
            "betweenness",
            defaults={"normalized": True, "sample_size": None, "seed": 0},
            kernel=_kernel_betweenness,
            validate=_validate_betweenness,
        ),
        PlanAlgorithm(
            "diameter",
            defaults={"samples": 10, "seed": 0},
            kernel=_kernel_diameter,
            validate=_validate_diameter,
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
