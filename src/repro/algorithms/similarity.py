"""Neighborhood-similarity measures and simple link prediction.

On extracted co-occurrence graphs (co-authors, co-actors, co-purchasers)
neighborhood overlap is the natural notion of similarity between two
entities; these functions are the building blocks of "who should collaborate
next" style analyses the paper's introduction motivates.

All measures use out-neighborhoods, which equal the undirected neighborhoods
on the symmetric graphs GraphGen extracts.  Each score has one
implementation here, a plain function over a snapshot's dense
``csr.neighbor_set`` rows — not a backend kernel — so every kernel backend
gets the same answer bit for bit.  External IDs only appear at the decode
boundary.

:func:`link_predictions_runner` is the registry's ``(csr, backend,
params)`` runner and :func:`check_link_predictions` its parameter check:
together they are :func:`link_predictions` and a session
:class:`~repro.session.AnalysisPlan`'s ``link_predictions`` request (tie-breaks
read the snapshot codec's reprs).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING

from repro.algorithms.centrality import is_nonnegative_int
from repro.exceptions import UsageError
from repro.graph.api import Graph, VertexId
from repro.graph.kernel import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend


def _neighborhood(csr: CSRGraph, index: int) -> set[int]:
    """Out-neighborhood of a dense index, excluding the vertex itself."""
    neighborhood = csr.neighbor_set(index)
    neighborhood.discard(index)
    return neighborhood


def _common(csr: CSRGraph, iu: int, iv: int) -> set[int]:
    """Dense indexes adjacent to both, excluding the endpoints."""
    shared = _neighborhood(csr, iu) & _neighborhood(csr, iv)
    shared.discard(iu)
    shared.discard(iv)
    return shared


def _jaccard(csr: CSRGraph, iu: int, iv: int) -> float:
    nu = _neighborhood(csr, iu)
    nv = _neighborhood(csr, iv)
    union = len(nu | nv)
    if not union:
        return 0.0
    return len(nu & nv) / union


def _adamic_adar(csr: CSRGraph, iu: int, iv: int) -> float:
    score = 0.0
    for index in _common(csr, iu, iv):
        degree = len(_neighborhood(csr, index))
        if degree > 1:
            score += 1.0 / math.log(degree)
    return score


def _preferential_attachment(csr: CSRGraph, iu: int, iv: int) -> int:
    return len(_neighborhood(csr, iu)) * len(_neighborhood(csr, iv))


#: similarity score name -> its function over a dense pair; the names are
#: what link prediction and the similarity matrix accept
_PAIR_SCORES = {
    "adamic_adar": _adamic_adar,
    "common_neighbors": lambda csr, iu, iv: len(_common(csr, iu, iv)),
    "jaccard": _jaccard,
    "preferential_attachment": _preferential_attachment,
}
SCORE_NAMES = tuple(_PAIR_SCORES)


def _pair_score(csr: CSRGraph, score: str, iu: int, iv: int) -> float:
    return float(_PAIR_SCORES[score](csr, iu, iv))


def _check_score(caller: str, score: str) -> None:
    if score not in SCORE_NAMES:
        raise UsageError(
            f"{caller}: unknown score {score!r}; "
            f"expected one of {', '.join(sorted(SCORE_NAMES))}"
        )


def check_link_predictions(params: dict) -> None:
    if not is_nonnegative_int(params["k"]):
        raise UsageError(
            f"link_predictions: k must be a non-negative integer (got {params['k']!r})"
        )
    _check_score("link_predictions", params["score"])


def _candidate_pairs(csr: CSRGraph) -> list[tuple[int, int]]:
    """Dense non-edge pairs at distance exactly two, in the deterministic
    enumeration order of the original free function (external-ID ``repr``
    sorts inside each shared neighborhood)."""
    ids = csr.external_ids
    neighbor_sets = [csr.neighbor_set(i) for i in range(csr.n)]
    candidates: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for index in range(csr.n):
        neighborhood = [ids[i] for i in _neighborhood(csr, index)]
        for a, b in combinations(sorted(neighborhood, key=repr), 2):
            ia, ib = csr.index(a), csr.index(b)
            if ib in neighbor_sets[ia] or ia in neighbor_sets[ib]:
                continue
            key = (ia, ib)
            if key not in seen:
                seen.add(key)
                candidates.append(key)
    return candidates


def _top_pairs(
    csr: CSRGraph, params: dict, candidates: list[tuple[int, int]]
) -> list[tuple[VertexId, VertexId, float]]:
    """The ``k`` highest-scoring of the dense ``candidates``, decoded;
    sorting descends by score with ties broken on the external IDs' reprs."""
    ids = csr.external_ids
    score = params["score"]
    scored = [(iu, iv, _pair_score(csr, score, iu, iv)) for iu, iv in candidates]
    scored.sort(key=lambda item: (-item[2], repr(ids[item[0]]), repr(ids[item[1]])))
    return [(ids[iu], ids[iv], value) for iu, iv, value in scored[: params["k"]]]


def link_predictions_runner(csr: CSRGraph, backend: "KernelBackend", params: dict) -> list:
    """The ``k`` highest-scoring pairs at distance exactly two."""
    return _top_pairs(csr, params, _candidate_pairs(csr))


def common_neighbors(graph: Graph, u: VertexId, v: VertexId) -> set[VertexId]:
    """Vertices adjacent to both ``u`` and ``v`` (excluding ``u``/``v`` themselves)."""
    csr = graph.snapshot()
    ids = csr.external_ids
    return {ids[i] for i in _common(csr, csr.index(u), csr.index(v))}


def jaccard_coefficient(graph: Graph, u: VertexId, v: VertexId) -> float:
    """``|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` (0.0 when both neighborhoods are empty)."""
    csr = graph.snapshot()
    return _jaccard(csr, csr.index(u), csr.index(v))


def adamic_adar(graph: Graph, u: VertexId, v: VertexId) -> float:
    """Adamic–Adar index: common neighbors weighted by ``1 / log(degree)``.

    Common neighbors of degree <= 1 contribute nothing (their log is 0).
    """
    csr = graph.snapshot()
    return _adamic_adar(csr, csr.index(u), csr.index(v))


def preferential_attachment(graph: Graph, u: VertexId, v: VertexId) -> int:
    """``|N(u)| * |N(v)|`` — the preferential-attachment link-prediction score."""
    csr = graph.snapshot()
    return _preferential_attachment(csr, csr.index(u), csr.index(v))


def link_predictions(
    graph: Graph,
    k: int = 10,
    score: str = "adamic_adar",
    candidates: list[tuple[VertexId, VertexId]] | None = None,
) -> list[tuple[VertexId, VertexId, float]]:
    """The ``k`` highest-scoring *non-edges*, descending.

    ``candidates`` restricts scoring to specific pairs; otherwise every
    unordered pair of vertices at distance exactly two is considered (pairs
    further apart score zero under all supported measures).
    """
    params = {"k": k, "score": score}
    check_link_predictions(params)
    csr = graph.snapshot()
    if candidates is None:
        dense = _candidate_pairs(csr)
    else:
        dense = [(csr.index(u), csr.index(v)) for u, v in candidates]
    return _top_pairs(csr, params, dense)


def similarity_matrix(
    graph: Graph, vertices: list[VertexId], score: str = "jaccard"
) -> dict[tuple[VertexId, VertexId], float]:
    """Pairwise similarity over an explicit vertex list (small sets only)."""
    _check_score("similarity_matrix", score)
    csr = graph.snapshot()
    result: dict[tuple[VertexId, VertexId], float] = {}
    for u, v in combinations(vertices, 2):
        value = _pair_score(csr, score, csr.index(u), csr.index(v))
        result[(u, v)] = value
        result[(v, u)] = value
    return result
