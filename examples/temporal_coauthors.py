#!/usr/bin/env python3
"""Temporal graph analytics: comparing co-author graphs across time windows.

The paper's introduction motivates extracting *many different graphs* from the
same relational data — "it is also often interesting to juxtapose and compare
graphs constructed over different time periods".  This example extracts one
co-author graph per time window (using a selection predicate on the
publication year inside the Edges rule), and tracks how the collaboration
network densifies over time:

* number of edges and average degree per window,
* size of the largest connected component,
* clustering coefficient,
* the authors whose PageRank grows the most between the first and last window.

Run with:  python examples/temporal_coauthors.py
"""

from __future__ import annotations

from repro import GraphGen
from repro.algorithms import average_clustering, average_degree, largest_component, pagerank
from repro.datasets import RECENT_COAUTHOR_QUERY_TEMPLATE, generate_dblp


WINDOW_STARTS = (1990, 2000, 2008, 2014)


def main() -> None:
    db = generate_dblp(
        num_authors=350,
        num_publications=900,
        mean_authors_per_pub=3.5,
        year_range=(1990, 2016),
        seed=13,
    )
    gg = GraphGen(db)
    print(f"database: {db}\n")

    print(f"{'window':>12} {'edges':>8} {'avg deg':>8} {'largest CC':>11} {'clustering':>11}")
    snapshots = {}
    for start in WINDOW_STARTS:
        query = RECENT_COAUTHOR_QUERY_TEMPLATE.format(year=start)
        graph = gg.extract(query, representation="dedup1")
        snapshots[start] = graph
        print(
            f"{f'>= {start}':>12} {graph.num_edges():8d} {average_degree(graph):8.2f} "
            f"{len(largest_component(graph)):11d} {average_clustering(graph):11.3f}"
        )

    print("\nrising stars (largest PageRank gain from the full graph to the most recent window):")
    first = pagerank(snapshots[WINDOW_STARTS[0]])
    last = pagerank(snapshots[WINDOW_STARTS[-1]])
    gains = {author: last.get(author, 0.0) - first.get(author, 0.0) for author in first}
    rising = sorted(gains.items(), key=lambda item: -item[1])[:5]
    reference = snapshots[WINDOW_STARTS[0]]
    for author, gain in rising:
        name = reference.get_property(author, "Name", default=author)
        print(f"  {name}: +{gain:.5f}")


if __name__ == "__main__":
    main()
