"""GraphGen's core: planning, extraction and the user-facing facade."""

from repro._lazy import lazy_exports

__all__ = [
    "ENGINE_AUTO",
    "ENGINE_PUSHDOWN",
    "ENGINE_PYTHON",
    "ENGINE_SQLITE",
    "EXTRACT_ENGINES",
    "ExtractionOptions",
    "EdgePlan",
    "ExtractionPlan",
    "JoinDecision",
    "NodePlan",
    "Planner",
    "SegmentPlan",
    "ExtractionReport",
    "Extractor",
    "ExtractionResult",
    "GraphGen",
    "REPRESENTATIONS",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.config": (
            "ENGINE_AUTO",
            "ENGINE_PUSHDOWN",
            "ENGINE_PYTHON",
            "ENGINE_SQLITE",
            "EXTRACT_ENGINES",
            "ExtractionOptions",
            "REPRESENTATIONS",
        ),
        "repro.core.planner": (
            "EdgePlan",
            "ExtractionPlan",
            "JoinDecision",
            "NodePlan",
            "Planner",
            "SegmentPlan",
        ),
        "repro.core.extractor": ("ExtractionReport", "Extractor"),
        "repro.core.graphgen": ("ExtractionResult", "GraphGen"),
    },
)
