#!/usr/bin/env python3
"""Heterogeneous graphs from a university database, plus NetworkX export.

Reproduces the paper's [Q3] workflow on the db-book university schema:

* a *heterogeneous bipartite* graph connecting instructors to the students who
  took their courses (two Nodes statements, one directed Edges statement),
* the student co-enrolment graph (the UNIV row of Table 1), analysed through
  the vertex-centric framework, and
* serialization of the extracted graph to an edge list and conversion to a
  NetworkX graph for downstream tooling — the role the paper's ``graphgenpy``
  wrapper plays.

Run with:  python examples/university_bipartite.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import networkx as nx

from repro import GraphGen
from repro.datasets import (
    COENROLLMENT_QUERY,
    INSTRUCTOR_STUDENT_BIPARTITE_QUERY,
    generate_univ,
)
from repro.io import to_networkx, write_edge_list
from repro.vertexcentric import run_connected_components, run_degree


def main() -> None:
    db = generate_univ(num_students=400, num_instructors=30, num_courses=60, seed=3)
    gg = GraphGen(db)
    print(f"database: {db}")

    print("\n--- heterogeneous instructor -> student graph ------------------")
    bipartite = gg.extract(INSTRUCTOR_STUDENT_BIPARTITE_QUERY, representation="cdup")
    instructors = [v for v in bipartite.get_vertices() if bipartite.degree(v) > 0]
    reach = {i: bipartite.degree(i) for i in instructors}
    top = sorted(reach.items(), key=lambda item: -item[1])[:5]
    print("instructors reaching the most students:")
    for instructor, students in top:
        name = bipartite.get_property(instructor, "Name", default=instructor)
        print(f"  {name}: {students} students")

    print("\n--- student co-enrolment graph (vertex-centric framework) ------")
    coenrolled = gg.extract(COENROLLMENT_QUERY, representation="bitmap")
    degrees, _ = run_degree(coenrolled)
    components, stats = run_connected_components(coenrolled)
    print(f"students:             {coenrolled.num_vertices()}")
    print(f"avg co-enrolment deg: {sum(degrees.values()) / len(degrees):.2f}")
    print(f"study communities:    {len(set(components.values()))}")
    print(f"supersteps to converge: {stats.supersteps}")

    print("\n--- export for external tools ----------------------------------")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coenrolment.tsv"
        edges = write_edge_list(coenrolled, path)
        print(f"wrote {edges} edges to {path.name} ({path.stat().st_size} bytes)")
    nx_graph = to_networkx(coenrolled, directed=False)
    print(
        f"as NetworkX: {nx_graph.number_of_nodes()} nodes, {nx_graph.number_of_edges()} edges, "
        f"density {nx.density(nx_graph):.4f}"
    )


if __name__ == "__main__":
    main()
