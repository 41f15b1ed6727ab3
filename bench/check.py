"""Output verification: every workload checks what the program answered.

A check that fails is an operation that failed — it lands in the run's
``failed`` count (and ``correct`` turns false), never in a timing.
"""

from __future__ import annotations

import math
import re
from typing import Any

FLOAT_TOLERANCE = 1e-9


def values_equal(left: Any, right: Any, tolerance: float = FLOAT_TOLERANCE) -> bool:
    """Deep equality with the backends' contract: ints (and everything
    discrete) exact, floats within ``tolerance``."""
    if isinstance(left, float) or isinstance(right, float):
        if isinstance(left, bool) or isinstance(right, bool):
            return left == right
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return abs(left - right) <= tolerance
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            values_equal(left[key], right[key], tolerance) for key in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            values_equal(a, b, tolerance) for a, b in zip(left, right)
        )
    return left == right


def linf(left: dict, right: dict) -> float:
    """L-infinity distance of two vertex-keyed score maps (inf when the key
    sets differ)."""
    if left.keys() != right.keys():
        return math.inf
    return max((abs(left[key] - right[key]) for key in left), default=0.0)


def same_partition(left: dict, right: dict) -> bool:
    """Two component labelings describe the same partition (labels may be
    named differently, membership may not)."""
    if left.keys() != right.keys():
        return False
    forward: dict[Any, Any] = {}
    backward: dict[Any, Any] = {}
    for vertex, label in left.items():
        other = right[vertex]
        if forward.setdefault(label, other) != other or backward.setdefault(other, label) != label:
            return False
    return True


def final_state_equal(hot: dict[str, Any], cold: dict[str, Any]) -> list[str]:
    """Problems found comparing hot (maintained / cached) final answers with
    a cold recompute on the final edge set: components exact, PageRank
    within ``FLOAT_TOLERANCE`` (L-infinity), anything else deep-equal."""
    problems = []
    for name, values in hot.items():
        if name == "components":
            ok = same_partition(values, cold[name])
        elif name == "pagerank":
            ok = linf(values, cold[name]) <= FLOAT_TOLERANCE
        else:
            ok = values_equal(values, cold[name])
        if not ok:
            problems.append(f"final {name} differs from a cold recompute")
    return problems


def engines_agree(reports: dict[str, Any]) -> list[str]:
    """The extraction engines' Table-1 counters must coincide."""
    problems = []
    names = sorted(reports)
    reference = reports[names[0]]
    for name in names[1:]:
        for counter in ("real_nodes", "virtual_nodes", "condensed_edges", "skipped_edge_tuples"):
            if getattr(reports[name], counter) != getattr(reference, counter):
                problems.append(
                    f"extraction engines disagree on {counter}: {names[0]}="
                    f"{getattr(reference, counter)} {name}={getattr(reports[name], counter)}"
                )
    return problems


# --------------------------------------------------------------------------- #
# CLI output: `repro analyze` prints one section per algorithm
# --------------------------------------------------------------------------- #
_SECTION = re.compile(r"^--- (.+) ---$")


def cli_sections(text: str) -> dict[str, list[str]]:
    """Split ``repro analyze`` output into ``{label: lines}``."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        match = _SECTION.match(line)
        if match:
            current = sections.setdefault(match.group(1), [])
        elif current is not None:
            current.append(line.rstrip())
    return sections


def _rows(lines: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """A section's header lines and its ``vertex  value`` table rows."""
    head, rows = [], []
    for line in lines:
        parts = line.rsplit(None, 1)
        if len(parts) == 2 and re.fullmatch(r"-?\d+(\.\d+)?", parts[1]):
            rows.append((parts[0].strip(), parts[1]))
        else:
            head.append(line)
    return head, rows


def cli_sections_equal(reference: list[str], other: list[str]) -> bool:
    """Two printed sections agree: same headers, same printed values in the
    same order.  Row *keys* may differ only among rows tied with the last
    printed value — a ``--top`` cut through a tie may keep either vertex, and
    component labels are arbitrary names."""
    ref_head, ref_rows = _rows(reference)
    other_head, other_rows = _rows(other)
    if ref_head != other_head or [v for _, v in ref_rows] != [v for _, v in other_rows]:
        return False
    if not ref_rows or any("component" in line or "communit" in line for line in ref_head):
        return True
    cut = ref_rows[-1][1]
    above = lambda rows: sorted(key for key, value in rows if value != cut)  # noqa: E731
    return above(ref_rows) == above(other_rows)


def cli_number(text: str, prefix: str) -> float | None:
    """The number a ``prefix: <number>`` summary line carries, if present."""
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].strip())
            except ValueError:
                return None
    return None
