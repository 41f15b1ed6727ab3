"""A tiny in-memory span recorder for the traced run.

The benchmark instruments the program from the outside: every span is
opened here, in ``bench/``, around a call into one layer's public function
(spans inside ``src/`` are ROADMAP item 2, a later change).  A span is
``(id, name, layer, phase, start, end, parent, run)``; counts are recorded at
the same boundaries; everything stays in memory until :meth:`Recorder.dump`.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times of all layers add up to the root spans' wall.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Recorder:
    """Collects spans and counts; a disabled recorder costs one ``if``."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span a *different* thread's root spans attach to — the client sets
        #: it around a wire request so the server thread's spans become its
        #: children (the traced run uses one client, so at most one is open)
        self.adopt: int | None = None

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, phase: str = "") -> Iterator[int | None]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        with self._lock:
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "layer": layer,
                "phase": phase,
                "parent": parent,
                "run": self.run_id,
                "start": 0.0,
                "end": 0.0,
            }
            self.spans.append(record)
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def child(self, name: str, layer: str, seconds: float, phase: str = "") -> None:
        """A synthetic child of the open span: ``seconds`` of its interval
        that the program itself attributes to another layer (for example the
        per-node kernel seconds an ``AnalysisReport`` carries)."""
        if not self.enabled or seconds <= 0.0:
            return
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        now = time.perf_counter()
        with self._lock:
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": name,
                    "layer": layer,
                    "phase": phase,
                    "parent": parent,
                    "run": self.run_id,
                    "start": now - seconds,
                    "end": now,
                }
            )

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, name: str, layer: str, phase: str = "") -> Callable:
        """``fn`` with a span around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer, phase):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, owner: Any, attribute: str, name: str, layer: str) -> Iterator[None]:
        """Temporarily replace ``owner.attribute`` (a module global, a class
        method or an instance method) by its span-wrapped form."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name, layer))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def _phase_of(self, span: dict[str, Any]) -> str:
        """A span's phase: its own, else its nearest ancestor's (span ids
        are list positions)."""
        while not span["phase"] and span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span["phase"]

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        """Seconds of every span called ``name`` (in ``phase``, if given)."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (phase is None or self._phase_of(s) == phase)
        ]

    def self_times(self, phase: str | None = None) -> dict[str, float]:
        """Self seconds per layer, over all spans or those of one phase."""
        durations = {s["id"]: s["end"] - s["start"] for s in self.spans}
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + durations[span["id"]]
        totals: dict[str, float] = {}
        for span in self.spans:
            if phase is not None and self._phase_of(span) != phase:
                continue
            own = max(0.0, durations[span["id"]] - covered.get(span["id"], 0.0))
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def shares(self, phase: str | None = None) -> dict[str, float]:
        """Percent of blocking time per layer (self times over their sum)."""
        totals = self.self_times(phase)
        wall = sum(totals.values())
        return {layer: 100.0 * seconds / wall for layer, seconds in totals.items()} if wall else {}

    def dump(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            dict(s, start=round(s["start"] - origin, 9), end=round(s["end"] - origin, 9))
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": spans, "counts": self.counts}, handle)


# --------------------------------------------------------------------------- #
# plan.run(): one compiler span with the kernels' share as its child
# --------------------------------------------------------------------------- #
def kernel_seconds(report: Any) -> float:
    """Seconds of a finished plan spent in derived-view, sweep and algorithm
    nodes — what the ``AnalysisReport`` itself attributes to kernels.  The
    rest of ``plan.run()``'s wall (lowering, routing, report assembly) is the
    compiler's: ``compiler.compile_s`` is that subtraction."""
    seen: dict[str, float] = {}
    for result in report.results:
        if result.engine == "incremental":
            continue  # a maintainer ran, not a kernel
        for node in result.nodes:
            if node.status == "computed" and node.kind != "snapshot":
                seen.setdefault(node.key, node.seconds)
    return sum(seen.values())


def run_plan(rec: Recorder, plan: Any, phase: str = "") -> Any:
    """``plan.run()`` under a compiler span whose kernel share is a child."""
    with rec.span("plan.run", "compiler", phase):
        report = plan.run()
        rec.child("kernels", "kernels", kernel_seconds(report))
    return report


@contextmanager
def plan_runs_traced(rec: Recorder) -> Iterator[None]:
    """Every ``AnalysisPlan.run`` the program makes on its own (inside the
    service, say) gets the same span while this context is open."""
    from repro.session.plan import AnalysisPlan

    original = AnalysisPlan.run

    def run(plan: Any, *args: Any, **kwargs: Any) -> Any:
        with rec.span("plan.run", "compiler"):
            report = original(plan, *args, **kwargs)
            rec.child("kernels", "kernels", kernel_seconds(report))
        return report

    AnalysisPlan.run = run
    try:
        yield
    finally:
        AnalysisPlan.run = original
