"""Dataset generators: scaled-down, schema-faithful stand-ins for the paper's
DBLP / IMDB / TPC-H / UNIV databases and its synthetic condensed graphs."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AUTHOR_PUBLICATION_BIPARTITE_QUERY": "repro.datasets.dblp",
        "COAUTHOR_QUERY": "repro.datasets.dblp",
        "RECENT_COAUTHOR_QUERY_TEMPLATE": "repro.datasets.dblp",
        "SAME_CONFERENCE_QUERY": "repro.datasets.dblp",
        "generate_dblp": "repro.datasets.dblp",
        "ACTOR_MOVIE_BIPARTITE_QUERY": "repro.datasets.imdb",
        "COACTOR_QUERY": "repro.datasets.imdb",
        "generate_imdb": "repro.datasets.imdb",
        "COPURCHASE_QUERY": "repro.datasets.tpch",
        "CUSTOMER_PART_BIPARTITE_QUERY": "repro.datasets.tpch",
        "SHARED_SUPPLIER_QUERY": "repro.datasets.tpch",
        "generate_tpch": "repro.datasets.tpch",
        "CO_TEACHING_QUERY": "repro.datasets.univ",
        "COENROLLMENT_QUERY": "repro.datasets.univ",
        "INSTRUCTOR_STUDENT_BIPARTITE_QUERY": "repro.datasets.univ",
        "generate_univ": "repro.datasets.univ",
        "SMALL_SPECS": "repro.datasets.synthetic",
        "SyntheticSpec": "repro.datasets.synthetic",
        "generate_condensed": "repro.datasets.synthetic",
        "generate_from_spec": "repro.datasets.synthetic",
        "GIRAPH_SPECS": "repro.datasets.large",
        "LAYERED_QUERY": "repro.datasets.large",
        "LAYERED_SPECS": "repro.datasets.large",
        "LayeredSpec": "repro.datasets.large",
        "SINGLE_QUERY": "repro.datasets.large",
        "SINGLE_SPECS": "repro.datasets.large",
        "SingleSpec": "repro.datasets.large",
        "generate_giraph_dataset": "repro.datasets.large",
        "generate_layered": "repro.datasets.large",
        "generate_single": "repro.datasets.large",
        "measured_selectivity": "repro.datasets.large",
    },
)
