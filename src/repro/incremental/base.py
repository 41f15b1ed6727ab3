"""What the dynamic-algorithm maintainers share: their work counters."""

from __future__ import annotations


class RepairCounters:
    """Process-global instrumentation (read as deltas, like
    ``TraversalCounters``): the clock-free work pins of the repairs."""

    #: vertices the BFS removal repair reset (on a pure removal window: the
    #: vertices whose distance grew)
    bfs_resets = 0
    #: netted undirected pairs the triangle repair processed: those whose
    #: adjacency differs between the window's old and new graphs
    triangle_pairs = 0
