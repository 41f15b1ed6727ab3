"""GraphGen's core: planning, extraction and the user-facing facade."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ENGINE_AUTO": "repro.core.config",
        "ENGINE_PUSHDOWN": "repro.core.config",
        "ENGINE_PYTHON": "repro.core.config",
        "ENGINE_SQLITE": "repro.core.config",
        "EXTRACT_ENGINES": "repro.core.config",
        "ExtractionOptions": "repro.core.config",
        "EdgePlan": "repro.core.planner",
        "ExtractionPlan": "repro.core.planner",
        "JoinDecision": "repro.core.planner",
        "NodePlan": "repro.core.planner",
        "Planner": "repro.core.planner",
        "SegmentPlan": "repro.core.planner",
        "ExtractionReport": "repro.core.extractor",
        "Extractor": "repro.core.extractor",
        "ExtractionResult": "repro.core.graphgen",
        "GraphGen": "repro.core.graphgen",
        "REPRESENTATIONS": "repro.core.config",
    },
)
