"""Memory-footprint estimation for in-memory graph representations.

The paper reports memory consumption (in GB) of the EXP, C-DUP, DEDUP-1 and
BITMAP representations (Tables 3 and 4).  Reproducing the exact JVM numbers is
not meaningful in Python, so this module provides two complementary tools:

* :func:`deep_size_of` — an actual recursive ``sys.getsizeof`` walk over a
  Python object graph, useful for small graphs and for sanity checks.
* :func:`estimate_adjacency_bytes` / :func:`estimate_bitmap_bytes` — analytic
  estimates using the cost model of the paper (a node costs one object plus
  two adjacency arrays, an edge costs one slot in each endpoint's array, a
  bitmap costs one bit per out-edge plus an index entry).  These scale to
  graphs of any size and are what the Table 3 / Table 4 tests pin.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

#: analytic cost model (bytes); chosen to mirror a 64-bit JVM-ish layout so
#: that the *relative* sizes of the representations match the paper.
NODE_OVERHEAD_BYTES = 64
EDGE_SLOT_BYTES = 8
BITMAP_INDEX_ENTRY_BYTES = 16
PROPERTY_BYTES = 48


def deep_size_of(obj: Any, _seen: set[int] | None = None) -> int:
    """Recursively compute the size in bytes of ``obj`` and everything it
    references.  Shared sub-objects are counted once."""
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    _seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_size_of(key, _seen)
            size += deep_size_of(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_size_of(item, _seen)
    elif hasattr(obj, "__dict__"):
        size += deep_size_of(vars(obj), _seen)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            if hasattr(obj, slot):
                size += deep_size_of(getattr(obj, slot), _seen)
    return size


def estimate_adjacency_bytes(num_nodes: int, num_edges: int, num_properties: int = 0) -> int:
    """Analytic memory estimate for an adjacency-list (CSR-variant) graph.

    Each node pays :data:`NODE_OVERHEAD_BYTES` (object header + two array
    headers), each directed edge pays :data:`EDGE_SLOT_BYTES` in the source's
    out-list and the target's in-list.
    """
    if num_nodes < 0 or num_edges < 0:
        raise ValueError("node and edge counts must be non-negative")
    return (
        num_nodes * NODE_OVERHEAD_BYTES
        + 2 * num_edges * EDGE_SLOT_BYTES
        + num_properties * PROPERTY_BYTES
    )


def estimate_bitmap_bytes(bitmap_sizes: Iterable[tuple[int, int]]) -> int:
    """Analytic estimate of the extra memory the BITMAP representation pays.

    Parameters
    ----------
    bitmap_sizes:
        Iterable of ``(num_bitmaps, bits_per_bitmap)`` pairs, one per virtual
        node that carries bitmaps.
    """
    total = 0
    for num_bitmaps, bits in bitmap_sizes:
        if num_bitmaps < 0 or bits < 0:
            raise ValueError("bitmap counts must be non-negative")
        bytes_per_bitmap = (bits + 7) // 8
        total += num_bitmaps * (bytes_per_bitmap + BITMAP_INDEX_ENTRY_BYTES)
    return total


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count, e.g. ``format_bytes(2048) == '2.0 KiB'``."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TiB"
