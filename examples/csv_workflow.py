#!/usr/bin/env python3
"""CSV round-trip and the graphgenpy serialization workflow.

A typical adoption path for GraphGen: data lives in an RDBMS, gets dumped to
CSV (every database can ``COPY`` to CSV), and the analyst wants a graph file
that their existing NetworkX / graph-tool scripts can read.  This example
walks that pipeline end to end:

1. build a TPC-H-shaped database and dump it to a directory of CSV files,
2. reload the CSVs into an in-memory database (schema manifest included),
3. extract the "customers who bought the same part" graph with graphgenpy,
   serializing it as an edge list,
4. reload the edge list as a ``networkx.DiGraph`` and analyze it there.

Run with:  python examples/csv_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import networkx as nx

from repro import GraphGenPy, load_networkx
from repro.datasets import COPURCHASE_QUERY, generate_tpch
from repro.relational.csv_io import read_database, write_database


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="graphgen_csv_"))

    # 1. dump a relational database to CSV --------------------------------- #
    original = generate_tpch(num_customers=150, num_parts=40,
                             orders_per_customer=3.0, lineitems_per_order=4.0,
                             part_skew=1.0, seed=5)
    csv_dir = workdir / "tpch_csv"
    files = write_database(original, csv_dir)
    print(f"wrote {len(files)} files to {csv_dir}")

    # 2. reload it (this is where a real deployment would start) ----------- #
    db = read_database(csv_dir)
    print(f"reloaded database {db.name!r} with tables: {', '.join(db.table_names())}")
    print(f"  total rows: {db.total_rows()}")

    # 3. extract + serialize with graphgenpy -------------------------------- #
    gpy = GraphGenPy(db)
    edge_list = workdir / "copurchase.tsv"
    serialized = gpy.execute_query(COPURCHASE_QUERY, edge_list, fmt="edgelist")
    print("\nserialized co-purchase graph:")
    for key, value in serialized.as_dict().items():
        print(f"  {key}: {value}")

    # 4. hand the file to NetworkX ------------------------------------------ #
    nx_graph = load_networkx(edge_list)
    undirected = nx_graph.to_undirected()
    print("\nNetworkX analysis of the serialized graph:")
    print(f"  nodes: {nx_graph.number_of_nodes()}  edges: {undirected.number_of_edges()}")
    print(f"  connected components: {nx.number_connected_components(undirected)}")
    top_degree = sorted(undirected.degree, key=lambda item: -item[1])[:3]
    for node, degree in top_degree:
        print(f"  customer {node} co-purchased with {degree} other customers")


if __name__ == "__main__":
    main()
