"""Dynamic connected components: union-find over the delta's *labels*.

Edge additions only ever *merge* components, so the previous labelling plus
a union per added pair determines the new partition exactly.  The unions run
over the handful of labels the added pairs touch — ``O(k α)`` for k added
edges, no traversal of the snapshot — and when no pair joins two labels and
no vertex is new, the previous labelling *is* the answer and is returned
untouched.  Otherwise one pass over the vector renumbers it
(``backend.relabel_components``: a python loop in the reference backend, a
single gather in the numpy one).  A net edge *removal* may split a
component, and deciding whether it does costs a reachability query, so
deletions fall back to the cold kernel (return ``None``).

The cold kernels label components 0-based in order of each component's
first dense vertex; identical partitions therefore canonicalise to identical
labelings, which is what makes the maintained result bit-identical to a
cold recompute.  Two facts keep that canonical form cheap: new vertices are
appended after every previous one, so a new singleton's label follows every
previous label; and a merged component's first vertex is the first vertex of
its lowest-labelled part, so the lowest label survives every union.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend
    from repro.graph.delta import DeltaOverlay
    from repro.graph.kernel import CSRGraph


def maintain_components(
    prev: list[int],
    csr: "CSRGraph",
    delta: "DeltaOverlay",
    params: dict,
    backend: "KernelBackend",
) -> list[int] | None:
    if delta.removed:
        return None  # a removal may split; recompute decides

    n = csr.n
    known = len(prev)
    index = csr._index
    # an appended vertex starts as a singleton labelled one past the previous
    # labels, in dense order: its dense index + shift
    shift = 0
    if n > known:
        shift = (max(prev) + 1 if known else 0) - known
    absorbed: dict[int, int] = {}  # label -> the lower label it merged into

    def find(label: int) -> int:
        root = label
        while root in absorbed:
            root = absorbed[root]
        while label != root:  # path compression
            absorbed[label], label = root, absorbed[label]
        return root

    for u, v in delta.added:
        iu, iv = index[u], index[v]
        a = find(prev[iu] if iu < known else iu + shift)
        b = find(prev[iv] if iv < known else iv + shift)
        if a != b:
            absorbed[max(a, b)] = min(a, b)
    if not absorbed and n == known:
        return prev
    return backend.relabel_components(
        prev, n, {label: find(label) for label in list(absorbed)}
    )
