"""Public-API stability: the exported surface is exactly the documented one.

Accidental additions to (or removals from) ``repro.__all__``,
``repro.session.__all__`` or ``repro.algorithms.__all__`` are API changes
and must fail fast here — update these lists only together with the docs
(README / ARCHITECTURE "Session layer").
"""

from __future__ import annotations

import pytest

import repro
import repro.algorithms
import repro.session
from tests.conftest import child_env

REPRO_ALL = [
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

SESSION_ALL = [
    "GraphSession",
    "GraphHandle",
    "AnalysisPlan",
    "AnalysisReport",
    "AnalysisResult",
    "Provenance",
    "NodeProvenance",
    "PLAN_ALGORITHMS",
]

ALGORITHMS_ALL = [
    "average_degree",
    "degree_of",
    "degrees",
    "max_degree_vertex",
    "bfs_distances",
    "bfs_order",
    "bfs_tree",
    "reachable_set",
    "shortest_path",
    "pagerank",
    "top_k_pagerank",
    "component_sizes",
    "connected_components",
    "largest_component",
    "num_components",
    "communities",
    "label_propagation",
    "average_clustering",
    "clustering_coefficient",
    "count_triangles",
    "triangles_per_vertex",
    "approximate_diameter",
    "average_path_length",
    "eccentricity",
    "single_source_shortest_paths",
    "core_numbers",
    "degeneracy",
    "degeneracy_ordering",
    "densest_core",
    "k_core",
    "betweenness_centrality",
    "closeness_centrality",
    "degree_centrality",
    "top_k_central",
    "adamic_adar",
    "common_neighbors",
    "jaccard_coefficient",
    "link_predictions",
    "preferential_attachment",
    "similarity_matrix",
]


@pytest.mark.parametrize(
    "module, documented",
    [
        (repro, REPRO_ALL),
        (repro.session, SESSION_ALL),
        (repro.algorithms, ALGORITHMS_ALL),
    ],
    ids=["repro", "repro.session", "repro.algorithms"],
)
def test_all_exports_exactly_the_documented_names(module, documented):
    assert list(module.__all__) == documented


@pytest.mark.parametrize(
    "module",
    [repro, repro.session, repro.algorithms],
    ids=["repro", "repro.session", "repro.algorithms"],
)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name} missing"


def test_no_duplicate_exports():
    for module in (repro, repro.session, repro.algorithms):
        assert len(module.__all__) == len(set(module.__all__))


def test_plan_registry_matches_documented_algorithms():
    """The CLI --algo catalogue is the plan registry; keep it stable."""
    assert sorted(repro.session.PLAN_ALGORITHMS) == [
        "betweenness",
        "bfs",
        "closeness",
        "clustering",
        "components",
        "degree",
        "diameter",
        "kcore",
        "label_propagation",
        "link_predictions",
        "pagerank",
        "triangles",
    ]


def test_import_and_analyze_do_not_import_networkx():
    """networkx costs ~0.1 s to import and only ``to_networkx`` needs it:
    ``import repro`` — every CLI process, every ``serve`` boot — and a whole
    ``repro analyze`` run must leave it unimported."""
    import subprocess
    import sys

    script = (
        "import io, sys\n"
        "import repro\n"
        "assert 'networkx' not in sys.modules, 'import repro pulled in networkx'\n"
        "from repro.cli import main\n"
        "code = main(['analyze', '--dataset', 'dblp', '--scale', '0.1',\n"
        "             '--algo', 'pagerank', '--algo', 'components'], out=io.StringIO())\n"
        "assert code == 0\n"
        "assert 'networkx' not in sys.modules, 'repro analyze pulled in networkx'\n"
        "from repro import extract_to_networkx, load_networkx  # still exported\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
