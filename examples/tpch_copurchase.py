#!/usr/bin/env python3
"""Co-purchase analysis on a TPC-H-style order database.

The paper's motivating TPC-H example: a *small* relational dataset (customers,
orders, line items) hides a very dense graph — customers connected whenever
they bought the same part.  Extracting that graph naively explodes; the
condensed representation keeps it manageable.

This example:

* extracts the co-purchase graph with the multi-join query [Q2] from the
  paper (two key-foreign-key joins pushed to the database, the part-key join
  kept condensed as a layer of virtual nodes),
* compares representation sizes (C-DUP vs DEDUP-1 vs BITMAP vs EXP),
* finds customer "communities" (groups buying the same parts) with label
  propagation, and
* uses the heterogeneous bipartite customer-part graph to list the most
  popular parts.

Run with:  python examples/tpch_copurchase.py
"""

from __future__ import annotations

from repro import GraphGen
from repro.algorithms import communities, degrees
from repro.datasets import (
    COPURCHASE_QUERY,
    CUSTOMER_PART_BIPARTITE_QUERY,
    generate_tpch,
)
from repro.graph import representation_stats
from repro.utils import format_bytes


def main() -> None:
    db = generate_tpch(num_customers=250, num_parts=80, orders_per_customer=3.5,
                       lineitems_per_order=4.0, part_skew=1.2, seed=7)
    print(f"database: {db}")
    gg = GraphGen(db)

    print("\n--- plan for the co-purchase graph ----------------------------")
    print(gg.explain(COPURCHASE_QUERY))

    print("\n--- representation sizes --------------------------------------")
    representations = ("cdup", "dedup1", "bitmap", "exp")
    graphs = {}
    for name in representations:
        graphs[name] = gg.extract(COPURCHASE_QUERY, representation=name)
        stats = representation_stats(graphs[name])
        print(
            f"{stats.representation:>8}: {stats.total_nodes:6d} nodes "
            f"({stats.virtual_nodes} virtual), {stats.edges:8d} stored edges, "
            f"~{format_bytes(stats.estimated_bytes)}"
        )

    print("\n--- customer communities (label propagation on BITMAP) --------")
    groups = communities(graphs["bitmap"], max_iterations=15, seed=1)
    sizes = [len(group) for group in groups[:5]]
    print(f"{len(groups)} communities; five largest: {sizes}")

    print("\n--- most popular parts (bipartite customer->part graph) -------")
    bipartite = gg.extract(CUSTOMER_PART_BIPARTITE_QUERY, representation="cdup")
    # in the bipartite graph, a part's popularity is its in-degree; compute it
    # by counting over customers' out-neighbors
    popularity: dict = {}
    for customer in bipartite.get_vertices():
        for part in bipartite.get_neighbors(customer):
            popularity[part] = popularity.get(part, 0) + 1
    top_parts = sorted(popularity.items(), key=lambda item: -item[1])[:5]
    for part, buyers in top_parts:
        name = bipartite.get_property(part, "Name", default=f"part {part}")
        print(f"  {name}: bought by {buyers} customers")

    print("\n--- who buys the most distinct parts? --------------------------")
    out_degrees = degrees(graphs["dedup1"])
    busiest = sorted(out_degrees.items(), key=lambda item: -item[1])[:5]
    for customer, degree in busiest:
        name = graphs["dedup1"].get_property(customer, "Name", default=customer)
        print(f"  {name}: connected to {degree} co-purchasers")


if __name__ == "__main__":
    main()
