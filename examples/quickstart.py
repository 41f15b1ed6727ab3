#!/usr/bin/env python3
"""Quickstart: extract a hidden co-author graph and analyze it in a session.

This is the end-to-end "hello world" of the GraphGen reproduction:

1. build a small DBLP-shaped relational database (Author, Publication,
   AuthorPub tables),
2. open a ``GraphSession`` — the object that owns the extractor, the
   snapshot store and the kernel backend for every analysis that follows,
3. declare the co-authors graph with the Datalog DSL and let the session
   extract it (the planner decides which joins are large-output and keeps
   them condensed),
4. chain several analyses onto ONE plan — they all execute over a single
   shared CSR snapshot build, and the report says exactly what ran where,
5. show how much smaller the condensed representation is than the fully
   expanded graph.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import GraphSession
from repro.datasets import COAUTHOR_QUERY, generate_dblp
from repro.graph import representation_stats
from repro.utils import format_bytes


def main() -> None:
    # 1. a DBLP-shaped database: ~400 authors writing ~700 papers
    db = generate_dblp(num_authors=400, num_publications=700,
                       mean_authors_per_pub=4.0, seed=42)
    print(f"database: {db}")

    # 2. one session owns extraction + snapshots + backend for all analyses;
    # the planner condenses a join whose exact output exceeds twice its
    # inputs, so the co-author self-join stays condensed
    session = GraphSession(db)
    print("\n--- extraction plan -------------------------------------------")
    print(session.explain(COAUTHOR_QUERY))

    # 3. extract once; the handle binds the representation to its snapshot
    handle = session.graph(COAUTHOR_QUERY, representation="cdup")
    report = handle.extraction.report
    print("\n--- extraction report -----------------------------------------")
    print(f"real nodes:        {report.real_nodes}")
    print(f"virtual nodes:     {report.virtual_nodes}")
    print(f"condensed edges:   {report.condensed_edges}")
    print(f"expanded edges:    {handle.extraction.condensed.expanded_edge_count()}")
    print(f"extraction time:   {report.seconds:.3f}s")

    # 4. chain the whole analysis batch onto one plan: a single CSR snapshot
    # build serves pagerank + components + triangles
    analysis = handle.analyze().pagerank().components().triangles().run()
    print("\n--- analytics on the condensed graph --------------------------")
    graph = handle.graph
    scores = analysis["pagerank"].values
    print("top-5 authors by PageRank:")
    top5 = sorted(scores.items(), key=lambda item: (-item[1], repr(item[0])))[:5]
    for author, score in top5:
        print(f"  {graph.get_property(author, 'Name')}: {score:.5f}")
    components = analysis["components"].values
    print(f"connected components: {len(set(components.values()))}")
    print(f"triangles:            {analysis['triangles'].values}")
    provenance = analysis.provenance
    print(
        f"(one snapshot build: {analysis.snapshot_builds}; "
        f"source={provenance.snapshot_source}, backend={provenance.backend})"
    )

    # 5. compare the memory footprint against the fully expanded graph
    print("\n--- condensed vs expanded -------------------------------------")
    expanded = session.graph(COAUTHOR_QUERY, representation="exp").graph
    for candidate in (graph, expanded):
        stats = representation_stats(candidate)
        print(
            f"{stats.representation:>6}: {stats.total_nodes:6d} nodes, "
            f"{stats.edges:8d} stored edges, ~{format_bytes(stats.estimated_bytes)}"
        )


if __name__ == "__main__":
    main()
