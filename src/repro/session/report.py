"""Structured results of a session analysis plan.

An :class:`~repro.session.AnalysisPlan` run produces one
:class:`AnalysisReport` holding an ordered list of per-algorithm
:class:`AnalysisResult` objects.  Every result carries its decoded values,
its wall-clock timing, the engine it ran on (an inline kernel, a node sliced
over the worker pool, a maintainer) and a shared :class:`Provenance` record
describing the execution context: which representation the snapshot was
taken from, which kernel backend computed it, where the snapshot's arrays live (freshly built heap
arrays, an mmap of a store file, or an in-process cache hit) and how many
worker processes were used.

The report is the session layer's answer to "what did I just compute, on
what, and how long did it take" — the paper's workflow runs *many* analyses
per extracted graph, so results need to stay attributable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class NodeProvenance:
    """One primitive DAG node's contribution to a result (plan compiler).

    The compiler lowers a plan into snapshot / derived-view / shared-sweep /
    per-algorithm nodes, deduplicated by structural key; each result then
    records, for every node in its dependency closure, whether *this* result
    triggered the computation or reused work another result (or a prior run,
    for cached snapshots) already paid for — the plan-level analogue of
    determination provenance.
    """

    #: structural key, e.g. ``"algo:pagerank(damping=0.85, ...)"``,
    #: ``"sweep[closeness+diameter:60 sources]"``, ``"und-csr"``, ``"snapshot"``
    key: str
    #: ``"snapshot"``, ``"derive"``, ``"sweep"`` or ``"algo"``
    kind: str
    #: ``"computed"`` — this result paid for the node; ``"reused"`` — the node
    #: was already available (an earlier result computed it, or the snapshot
    #: came from a cache/mmap instead of a fresh build)
    status: str
    #: wall-clock seconds the node's one execution took (0.0 for reused
    #: snapshots that were never built this run)
    seconds: float


@dataclass(frozen=True)
class Provenance:
    """Where and how an analysis executed."""

    #: representation the analyzed snapshot was taken from ("cdup", "exp", ...)
    representation: str
    #: kernel backend that executed ("python" or "numpy")
    backend: str
    #: where the snapshot's arrays came from for this run: ``"heap"`` (built
    #: from the live graph), ``"mmap"`` (zero-copy load of a store file),
    #: ``"cache-hit"`` (the graph's still-valid in-process snapshot was
    #: reused) or ``"base+delta"`` (a journaled graph's base merged with its
    #: pending deltas)
    snapshot_source: str
    #: worker processes used (1 = serial)
    parallelism: int
    #: pending edge-delta records merged over the base snapshot when the
    #: graph is journaled (``snapshot_source="base+delta"``); 0 otherwise
    delta_edges: int = 0


@dataclass
class AnalysisResult:
    """One algorithm's outcome inside an :class:`AnalysisReport`."""

    #: registry name of the algorithm ("pagerank", "components", ...)
    algorithm: str
    #: unique label within the report ("bfs", "bfs#2", ...)
    label: str
    #: effective parameters the algorithm ran with (defaults filled in)
    params: dict[str, Any]
    #: decoded values, shaped exactly like the matching free function's return
    values: Any
    #: wall-clock seconds spent executing this algorithm (snapshot excluded)
    seconds: float
    #: ``"kernel"`` (backend kernel on the coordinator), ``"chunks"`` (answered
    #: from a node that ran sliced over the pool — the fused sweep or the
    #: triangle pass — merged exactly from per-worker partials) or
    #: ``"incremental"`` (a dynamic maintainer repaired the previous result
    #: over the delta journal — no kernel ran)
    engine: str
    provenance: Provenance
    #: human-readable execution notes (e.g. how many delta records a
    #: maintainer absorbed)
    notes: tuple[str, ...] = ()
    #: where the work behind this request ran: ``"inline"`` (coordinator
    #: process) or ``"pool"`` (the plan's shared worker pool — exactly the
    #: ``"chunks"`` engine)
    scheduled: str = "inline"
    #: per-node provenance over this result's dependency closure, in
    #: execution order (snapshot, derived views, shared sweep, the algorithm
    #: node itself)
    nodes: tuple[NodeProvenance, ...] = ()

    @property
    def reused(self) -> bool:
        """True when this result's own algorithm node was computed by an
        earlier, structurally identical request in the same plan (a duplicate
        request: same algorithm, same effective parameters)."""
        return any(
            node.kind == "algo" and node.status == "reused" for node in self.nodes
        )


@dataclass
class AnalysisReport:
    """Ordered, addressable collection of :class:`AnalysisResult` objects."""

    results: list[AnalysisResult] = field(default_factory=list)
    #: plan-level provenance (the shared snapshot + session configuration)
    provenance: Provenance | None = None
    #: wall-clock seconds for the whole run, snapshot acquisition included
    total_seconds: float = 0.0
    #: CSR snapshot builds/loads this run performed (0 = pure cache hit)
    snapshot_builds: int = 0
    #: worker pools forked during this run — the plan scheduler's contract is
    #: at most 1 per plan, shared by every pool-dispatched request.  Measured
    #: as a delta of *thread-local* instrumentation so hidden per-request
    #: forks anywhere in the stack are still caught, while plans running
    #: concurrently in one process (the graph service) each see only their
    #: own counts
    pool_starts: int = 0
    #: snapshot files written during this run (store writes and the
    #: store-less tempfile alike) — at most 1 per plan; thread-local delta,
    #: same scoping as :attr:`pool_starts`
    snapshot_writes: int = 0
    #: DAG nodes this run executed
    nodes_computed: int = 0
    #: reuse events: closure entries that resolved to an already-available
    #: node (CSE hits, duplicate requests, cached snapshots)
    nodes_reused: int = 0
    #: service-level result-cache / admission counters for reports assembled
    #: by :mod:`repro.service` (e.g. ``{"hits": 2, "misses": 1,
    #: "queue_depth": 0}``); None for reports produced by a plain
    #: ``AnalysisPlan.run()``
    cache: dict[str, int] | None = None
    #: delta-journal counters for journaled graphs (e.g. ``{"pending": 3,
    #: "total": 17, "compactions": 1}``); None when the analyzed graph has no
    #: journal
    journal: dict[str, int] | None = None

    def __iter__(self) -> Iterator[AnalysisResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, key: str | int) -> bool:
        # __getitem__ raises KeyError for unknown labels but IndexError for
        # out-of-range int positions (including negative ones); membership
        # must swallow both — ``5 in report`` is a question, not a mistake
        try:
            self[key]
        except (KeyError, IndexError):
            return False
        return True

    def __getitem__(self, key: str | int) -> AnalysisResult:
        """Address a result by position, exact label, or algorithm name
        (first match, in plan order)."""
        if isinstance(key, int):
            return self.results[key]
        for result in self.results:
            if result.label == key:
                return result
        for result in self.results:
            if result.algorithm == key:
                return result
        raise KeyError(
            f"no analysis result {key!r} in this report (labels: {self.labels()})"
        )

    def labels(self) -> list[str]:
        return [result.label for result in self.results]

    def nodes(self) -> list[NodeProvenance]:
        """Every distinct DAG node touched by this run, in first
        appearance order, with the status of its first consumer — i.e. shared
        nodes show up once, as ``computed`` (or ``reused`` for snapshots that
        came off a cache)."""
        seen: dict[str, NodeProvenance] = {}
        for result in self.results:
            for node in result.nodes:
                seen.setdefault(node.key, node)
        return list(seen.values())

    def summary(self) -> str:
        """Multi-line human-readable digest of the run."""
        lines = []
        if self.provenance is not None:
            p = self.provenance
            deltas = f" delta_edges={p.delta_edges}" if p.delta_edges else ""
            lines.append(
                f"analysis of {p.representation} snapshot ({p.snapshot_source}) "
                f"on backend={p.backend} parallelism={p.parallelism}{deltas}: "
                f"{len(self.results)} algorithm(s), "
                f"{self.snapshot_builds} snapshot build(s), "
                f"{self.total_seconds:.3f}s total"
            )
        if self.cache is not None:
            lines.append(
                "  result cache: "
                + " ".join(f"{key}={value}" for key, value in sorted(self.cache.items()))
            )
        if self.journal is not None:
            lines.append(
                "  delta journal: "
                + " ".join(
                    f"{key}={value}" for key, value in sorted(self.journal.items())
                )
            )
        for result in self.results:
            lines.append(
                f"  {result.label}: engine={result.engine} "
                f"scheduled={result.scheduled} {result.seconds:.3f}s"
            )
            if result.nodes:
                lines.append(
                    "    nodes: "
                    + " ".join(
                        f"{node.key}={node.status}({node.seconds:.3f}s)"
                        for node in result.nodes
                    )
                )
        return "\n".join(lines)
