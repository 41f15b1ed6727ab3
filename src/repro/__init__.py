"""GraphGen reproduction: extracting and analyzing hidden graphs from
relational databases (Xirogiannopoulos & Deshpande, SIGMOD 2017).

Quickstart::

    from repro import Database, GraphGen
    from repro.algorithms import pagerank

    db = Database("dblp")
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("AuthorPub", [("aid", "int"), ("pid", "int")])
    ...
    gg = GraphGen(db)
    graph = gg.extract('''
        Nodes(ID, Name) :- Author(ID, Name).
        Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
    ''', representation="bitmap")
    scores = pagerank(graph)

or, for batch analytics over one shared snapshot, through the session layer::

    from repro import GraphSession

    session = GraphSession(db, snapshot_cache="./snapshots")
    handle = session.graph(QUERY, representation="bitmap")
    report = handle.analyze().pagerank().components().triangles().run()
    scores = report["pagerank"].values
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "ExtractionOptions",
    "ExtractionResult",
    "GraphGen",
    "GraphSession",
    "GraphHandle",
    "AnalysisPlan",
    "AnalysisReport",
    "AnalysisResult",
    "Database",
    "parse_query",
    "BitmapGraph",
    "CDupGraph",
    "CondensedGraph",
    "Dedup1Graph",
    "Dedup2Graph",
    "ExpandedGraph",
    "Graph",
    "GraphGenPy",
    "extract_to_networkx",
    "load_networkx",
    "extract_snapshots",
    "snapshot_diff",
    "temporal_metrics",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.config": ("ExtractionOptions",),
        "repro.core.graphgen": ("ExtractionResult", "GraphGen"),
        "repro.relational.database": ("Database",),
        "repro.dsl.parser": (("parse_query", "parse"),),
        "repro.graph.api": ("Graph",),
        "repro.graph.bitmap": ("BitmapGraph",),
        "repro.graph.cdup": ("CDupGraph",),
        "repro.graph.condensed": ("CondensedGraph",),
        "repro.graph.dedup1": ("Dedup1Graph",),
        "repro.graph.dedup2": ("Dedup2Graph",),
        "repro.graph.expanded": ("ExpandedGraph",),
        "repro.graphgenpy": ("GraphGenPy", "extract_to_networkx", "load_networkx"),
        "repro.session.plan": ("AnalysisPlan",),
        "repro.session.report": ("AnalysisReport", "AnalysisResult"),
        "repro.session.session": ("GraphHandle", "GraphSession"),
        "repro.temporal": ("extract_snapshots", "snapshot_diff", "temporal_metrics"),
    },
)
