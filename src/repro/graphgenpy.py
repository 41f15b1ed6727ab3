"""``graphgenpy`` — the scripting wrapper around GraphGen.

The paper ships a small Python library of the same name that lets users "run
queries in our DSL through simple Python scripts and serialize the resulting
graphs in a standard graph format, thus opening up analysis to any graph
computation framework or library" (Section 3.4).  This module reproduces that
workflow on top of the in-process engine:

* :class:`GraphGenPy` — execute an extraction query and serialize the result
  to an edge list, adjacency JSON or condensed JSON file;
* :func:`extract_to_networkx` — one call from a database + query to a
  ``networkx.DiGraph`` ready for any NetworkX algorithm;
* :func:`load_networkx` — read a previously serialized graph back as NetworkX.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.config import FORMATS
from repro.core.graphgen import GraphGen
from repro.exceptions import GraphGenError
from repro.graph.api import Graph
from repro.io.networkx_adapter import to_networkx
from repro.io.serialize import (
    read_edge_list,
    write_adjacency_json,
    write_condensed_json,
    write_edge_list,
)
from repro.relational.database import Database


@dataclass
class SerializedGraph:
    """What :meth:`GraphGenPy.execute_query` hands back to the caller."""

    path: Path
    format: str
    representation: str
    num_vertices: int
    num_edges: int
    extraction_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "format": self.format,
            "representation": self.representation,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "extraction_seconds": self.extraction_seconds,
        }


class GraphGenPy:
    """Script-friendly facade: extract a graph and serialize it to disk.

    Example::

        gpy = GraphGenPy(db)
        result = gpy.execute_query(COAUTHOR_QUERY, "coauthors.tsv")
        nx_graph = load_networkx(result.path)
    """

    def __init__(self, database: Database, **options: Any) -> None:
        self._graphgen = GraphGen(database, **options)

    @property
    def graphgen(self) -> GraphGen:
        """The underlying :class:`GraphGen` instance (for advanced use)."""
        return self._graphgen

    # ------------------------------------------------------------------ #
    def execute_query(
        self,
        query: str,
        output_file: str | Path,
        fmt: str = "edgelist",
        representation: str = "cdup",
    ) -> SerializedGraph:
        """Extract the graph defined by ``query`` and write it to ``output_file``.

        ``fmt`` is one of :data:`FORMATS`.  The edge-list and adjacency
        formats serialize the *expanded* logical edges (as the paper does when
        handing graphs to external systems); the condensed format losslessly
        dumps the condensed structure so it can be reloaded without
        re-running the extraction queries.
        """
        if fmt not in FORMATS:
            raise GraphGenError(f"unknown serialization format {fmt!r}; expected one of {FORMATS}")
        output_file = Path(output_file)
        result = self._graphgen.extract_with_report(query, representation=representation)

        if fmt == "edgelist":
            num_edges = write_edge_list(result.graph, output_file)
        elif fmt == "adjacency":
            write_adjacency_json(result.graph, output_file)
            num_edges = result.graph.num_edges()
        else:
            write_condensed_json(result.condensed, output_file)
            num_edges = result.condensed.num_condensed_edges

        return SerializedGraph(
            path=output_file,
            format=fmt,
            representation=result.representation,
            num_vertices=result.graph.num_vertices(),
            num_edges=num_edges,
            extraction_seconds=result.report.seconds,
        )

    # ------------------------------------------------------------------ #
    def execute_to_graph(self, query: str, representation: str = "cdup") -> Graph:
        """Extract and return the in-memory graph without serializing it."""
        return self._graphgen.extract(query, representation=representation)

    def execute_to_networkx(self, query: str, representation: str = "cdup"):
        """Extract and convert to a ``networkx.DiGraph`` in one call."""
        return to_networkx(self.execute_to_graph(query, representation=representation))


# --------------------------------------------------------------------------- #
# module-level conveniences
# --------------------------------------------------------------------------- #
def extract_to_networkx(database: Database, query: str, representation: str = "cdup"):
    """One-shot helper: database + DSL query -> ``networkx.DiGraph``."""
    return GraphGenPy(database).execute_to_networkx(query, representation=representation)


def load_networkx(path: str | Path):
    """Load a previously serialized edge-list file as a ``networkx.DiGraph``."""
    return to_networkx(read_edge_list(path))
