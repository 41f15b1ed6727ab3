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

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ExtractionOptions": "repro.core.config",
        "ExtractionResult": "repro.core.graphgen",
        "GraphGen": "repro.core.graphgen",
        "GraphSession": "repro.session.session",
        "GraphHandle": "repro.session.session",
        "AnalysisPlan": "repro.session.plan",
        "AnalysisReport": "repro.session.report",
        "AnalysisResult": "repro.session.report",
        "Database": "repro.relational.database",
        "parse_query": ("repro.dsl.parser", "parse"),
        "BitmapGraph": "repro.graph.bitmap",
        "CDupGraph": "repro.graph.cdup",
        "CondensedGraph": "repro.graph.condensed",
        "Dedup1Graph": "repro.graph.dedup1",
        "Dedup2Graph": "repro.graph.dedup2",
        "ExpandedGraph": "repro.graph.expanded",
        "Graph": "repro.graph.api",
        "GraphGenPy": "repro.graphgenpy",
        "extract_to_networkx": "repro.graphgenpy",
        "load_networkx": "repro.graphgenpy",
        "extract_snapshots": "repro.temporal",
        "snapshot_diff": "repro.temporal",
        "temporal_metrics": "repro.temporal",
    },
)
__all__.append("__version__")
