"""GraphGen's core: planning, extraction and the user-facing facade."""

from repro.core.config import (
    ENGINE_AUTO,
    ENGINE_PUSHDOWN,
    ENGINE_PYTHON,
    ENGINE_SQLITE,
    EXTRACT_ENGINES,
    ExtractionOptions,
)
from repro.core.planner import (
    EdgePlan,
    ExtractionPlan,
    JoinDecision,
    NodePlan,
    Planner,
    SegmentPlan,
)
from repro.core.extractor import ExtractionReport, Extractor
from repro.core.graphgen import ExtractionResult, GraphGen, REPRESENTATIONS

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
