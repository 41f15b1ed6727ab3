"""NetworkX interoperability.

The paper's ``graphgenpy`` wrapper exists precisely so that extracted graphs
can be analysed "using any graph computation framework or library (e.g.,
NetworkX)"; these converters play that role for this reproduction and are also
used by the test suite to cross-check algorithm results against NetworkX.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.api import Graph, VertexId
from repro.graph.expanded import ExpandedGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    # networkx costs ~0.1 s to import; ``import repro`` (every CLI process,
    # every ``serve`` boot) must not pay it — only to_networkx() builds
    # NetworkX objects, so only it imports the library
    import networkx as nx


def to_networkx(graph: Graph, directed: bool = True) -> "nx.DiGraph | nx.Graph":
    """Materialise any representation as a NetworkX (Di)Graph.

    The *logical* (expanded) graph is exported: every vertex, every
    de-duplicated edge, plus vertex properties when the representation stores
    them.
    """
    import networkx as nx

    result: nx.DiGraph | nx.Graph = nx.DiGraph() if directed else nx.Graph()
    for vertex in graph.get_vertices():
        result.add_node(vertex)
    for source in graph.get_vertices():
        for target in graph.get_neighbors(source):
            result.add_edge(source, target)
    return result


def from_networkx(nx_graph: "nx.Graph | nx.DiGraph") -> ExpandedGraph:
    """Import a NetworkX graph as an :class:`ExpandedGraph`.

    Undirected graphs become symmetric directed graphs (the paper represents
    undirected graphs with bidirectional edges).
    """
    graph = ExpandedGraph()
    for node, data in nx_graph.nodes(data=True):
        graph.add_vertex(node, **dict(data))
    directed = nx_graph.is_directed()
    for source, target in nx_graph.edges():
        graph.add_edge(source, target)
        if not directed and source != target:
            graph.add_edge(target, source)
    return graph


def neighbors_match(graph: Graph, nx_graph: "nx.DiGraph", vertex: VertexId) -> bool:
    """True if a vertex has the same out-neighbor set in both graphs (test helper)."""
    ours = set(graph.get_neighbors(vertex))
    theirs = set(nx_graph.successors(vertex))
    return ours == theirs
