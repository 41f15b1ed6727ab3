"""The session layer: a unified extract → snapshot → analyze API.

:class:`GraphSession` owns the resources a batch-analysis workload wants
amortised (extractor, snapshot store, kernel backend, worker processes);
:class:`GraphHandle` binds one extracted representation to its lazily built,
store-backed, version-tracked CSR snapshot; :class:`AnalysisPlan` chains
algorithm requests that execute over **one** shared snapshot; and
:class:`AnalysisReport` / :class:`AnalysisResult` / :class:`Provenance`
carry the structured outcome, including per-node :class:`NodeProvenance`
records for compiled runs (see :mod:`repro.session.compiler`).  See
:mod:`repro.session.session` for the object model and a usage example.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "GraphSession": "repro.session.session",
        "GraphHandle": "repro.session.session",
        "AnalysisPlan": "repro.session.plan",
        "AnalysisReport": "repro.session.report",
        "AnalysisResult": "repro.session.report",
        "Provenance": "repro.session.report",
        "NodeProvenance": "repro.session.report",
        "PLAN_ALGORITHMS": "repro.session.plan",
    },
)
