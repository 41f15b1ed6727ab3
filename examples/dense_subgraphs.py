#!/usr/bin/env python3
"""Dense-subgraph and centrality analysis on the co-actor graph.

The paper argues that complex analyses like "community detection, dense
subgraph detection ... require random and arbitrary access to the graph, and
cannot be efficiently, if at all, executed using basic SQL" (Section 2).
This example extracts the IMDB-style co-actor graph in the memory-efficient
BITMAP representation and runs exactly that kind of analysis on it through
one ``GraphSession`` plan — k-core decomposition, betweenness / closeness
centrality and Adamic–Adar link prediction all execute over a single shared
CSR snapshot build:

* k-core decomposition to find the densest collaboration core,
* betweenness / closeness centrality to find the actors bridging communities,
* Adamic–Adar link prediction to suggest likely future collaborations.

Run with:  python examples/dense_subgraphs.py
"""

from __future__ import annotations

from repro import GraphSession
from repro.algorithms import densest_core, top_k_central
from repro.datasets import COACTOR_QUERY, generate_imdb


def main() -> None:
    db = generate_imdb(num_people=250, num_movies=45, mean_cast_size=8.0, seed=11)
    session = GraphSession(db)

    handle = session.graph(COACTOR_QUERY, representation="bitmap")
    graph = handle.graph
    extraction = handle.extraction
    print("co-actor graph (BITMAP representation)")
    print(f"  actors: {graph.num_vertices()}")
    print(f"  condensed edges stored: {extraction.report.condensed_edges}")
    print(f"  expanded edges represented: {extraction.condensed.expanded_edge_count()}")

    # one plan, one snapshot build, four analyses ------------------------- #
    report = (
        handle.analyze()
        .kcore()
        .betweenness(sample_size=60, seed=3)
        .closeness()
        .link_predictions(k=5, score="adamic_adar")
        .run()
    )
    print(
        f"  (snapshot builds for the whole batch: {report.snapshot_builds}, "
        f"backend: {report.provenance.backend})"
    )

    # dense subgraph detection via k-core decomposition -------------------- #
    cores = report["kcore"].values
    k, members = densest_core(graph)  # reuses the same cached snapshot
    print(f"\ndensest core: k = {k} with {len(members)} actors")
    print(f"  average core number: {sum(cores.values()) / len(cores):.2f}")

    # centrality ----------------------------------------------------------- #
    betweenness = report["betweenness"].values
    closeness = report["closeness"].values
    print("\nmost central actors (sampled betweenness):")
    for actor, score in top_k_central(betweenness, k=5):
        name = graph.get_property(actor, "Name", actor)
        print(f"  {name}: betweenness={score:.4f} closeness={closeness[actor]:.3f}")

    # link prediction ------------------------------------------------------ #
    print("\nsuggested future collaborations (Adamic-Adar):")
    for u, v, score in report["link_predictions"].values:
        name_u = graph.get_property(u, "Name", u)
        name_v = graph.get_property(v, "Name", v)
        print(f"  {name_u} -- {name_v}: {score:.2f}")


if __name__ == "__main__":
    main()
