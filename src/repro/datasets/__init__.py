"""Dataset generators: scaled-down, schema-faithful stand-ins for the paper's
DBLP / IMDB / TPC-H / UNIV databases and its synthetic condensed graphs."""

from repro._lazy import lazy_exports

__all__ = [
    "AUTHOR_PUBLICATION_BIPARTITE_QUERY",
    "COAUTHOR_QUERY",
    "RECENT_COAUTHOR_QUERY_TEMPLATE",
    "SAME_CONFERENCE_QUERY",
    "generate_dblp",
    "ACTOR_MOVIE_BIPARTITE_QUERY",
    "COACTOR_QUERY",
    "generate_imdb",
    "COPURCHASE_QUERY",
    "CUSTOMER_PART_BIPARTITE_QUERY",
    "SHARED_SUPPLIER_QUERY",
    "generate_tpch",
    "CO_TEACHING_QUERY",
    "COENROLLMENT_QUERY",
    "INSTRUCTOR_STUDENT_BIPARTITE_QUERY",
    "generate_univ",
    "SMALL_SPECS",
    "SyntheticSpec",
    "generate_condensed",
    "generate_from_spec",
    "GIRAPH_SPECS",
    "LAYERED_QUERY",
    "LAYERED_SPECS",
    "LayeredSpec",
    "SINGLE_QUERY",
    "SINGLE_SPECS",
    "SingleSpec",
    "generate_giraph_dataset",
    "generate_layered",
    "generate_single",
    "measured_selectivity",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.datasets.dblp": (
            "AUTHOR_PUBLICATION_BIPARTITE_QUERY",
            "COAUTHOR_QUERY",
            "RECENT_COAUTHOR_QUERY_TEMPLATE",
            "SAME_CONFERENCE_QUERY",
            "generate_dblp",
        ),
        "repro.datasets.imdb": ("ACTOR_MOVIE_BIPARTITE_QUERY", "COACTOR_QUERY", "generate_imdb"),
        "repro.datasets.tpch": (
            "COPURCHASE_QUERY",
            "CUSTOMER_PART_BIPARTITE_QUERY",
            "SHARED_SUPPLIER_QUERY",
            "generate_tpch",
        ),
        "repro.datasets.univ": (
            "CO_TEACHING_QUERY",
            "COENROLLMENT_QUERY",
            "INSTRUCTOR_STUDENT_BIPARTITE_QUERY",
            "generate_univ",
        ),
        "repro.datasets.synthetic": (
            "SMALL_SPECS",
            "SyntheticSpec",
            "generate_condensed",
            "generate_from_spec",
        ),
        "repro.datasets.large": (
            "GIRAPH_SPECS",
            "LAYERED_QUERY",
            "LAYERED_SPECS",
            "LayeredSpec",
            "SINGLE_QUERY",
            "SINGLE_SPECS",
            "SingleSpec",
            "generate_giraph_dataset",
            "generate_layered",
            "generate_single",
            "measured_selectivity",
        ),
    },
)
