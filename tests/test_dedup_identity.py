"""Every DEDUP-1 algorithm x ordering builds the same graph, edge for edge,
with bounded work.

* **Identity.**  ``GOLDEN`` holds a sha256 over the ordered ``succ`` lists
  (every node id with its successors in list order) of each algorithm's
  result, three orderings each at seed 7, on six inputs from the figure-1
  toy to the benchmark's DBLP shape.  The digests were recorded at commit
  6d4cd20562f431a32b24e74ee8780e386e3919e3, when the overlap candidates of a
  virtual node were found by scanning every processed one and the
  neighbourhood masks were rebuilt lazily.  A changed digest means a decision
  or a tie-break moved, not only the speed.
* **Work.**  On the benchmark's DBLP shape (650 authors, 1 170 publications,
  five authors each) the two virtual-first algorithms probe only the
  processed virtual nodes that share a real in-node with the new one
  (``DedupCounters.pair_tests``: 65 928 / 55 017, where the scan over
  every processed node made 700 059 / 689 148).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core import GraphGen
from repro.datasets import (
    COACTOR_QUERY,
    COAUTHOR_QUERY,
    SMALL_SPECS,
    generate_dblp,
    generate_from_spec,
    generate_imdb,
)
from repro.dedup import DEDUP1_ALGORITHMS, DedupCounters, deduplicate_dedup1
from repro.graph import CondensedGraph

ORDERINGS = ("random", "degree_desc", "degree_asc")


def _figure1() -> CondensedGraph:
    graph = CondensedGraph()
    for author in range(1, 7):
        graph.add_real_node(author)
    for paper, authors in {1: [1, 2, 3, 4], 2: [1, 4, 5], 3: [5, 6]}.items():
        virtual = graph.add_virtual_node(("PubID", paper))
        for author in authors:
            graph.add_edge(graph.internal(author), virtual)
            graph.add_edge(virtual, graph.internal(author))
    return graph


def _extracted(db, query: str) -> CondensedGraph:
    gg = GraphGen(db, preprocess=False)
    return gg.extract_with_report(query, representation="cdup").condensed


INPUTS = {
    "figure1": _figure1,
    "synthetic_1": lambda: generate_from_spec(SMALL_SPECS["synthetic_1"]),
    "synthetic_2": lambda: generate_from_spec(SMALL_SPECS["synthetic_2"]),
    "dblp_small": lambda: _extracted(
        generate_dblp(num_authors=500, num_publications=900, mean_authors_per_pub=4.0, seed=1),
        COAUTHOR_QUERY,
    ),
    "imdb_small": lambda: _extracted(
        generate_imdb(num_people=400, num_movies=60, mean_cast_size=12.0, seed=2),
        COACTOR_QUERY,
    ),
    "dblp_bench": lambda: _extracted(
        generate_dblp(num_authors=650, num_publications=1170, mean_authors_per_pub=5.0, seed=7),
        COAUTHOR_QUERY,
    ),
}


@lru_cache(maxsize=None)
def condensed_input(name: str) -> CondensedGraph:
    return INPUTS[name]()


def digest(graph: CondensedGraph) -> str:
    """sha256 over every node's ordered successor list, nodes by id."""
    text = ";".join(
        f"{node}:{','.join(map(str, graph.succ[node]))}" for node in sorted(graph.succ)
    )
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN: dict[tuple[str, str, str], str] = {
    ("dblp_bench", "greedy_real_first", "random"):
        "b19631be616cfc04364fdcaeceefe5ca7f093d67c7d8d043500cc4d8104d7d9e",
    ("dblp_bench", "greedy_real_first", "degree_desc"):
        "2abf350bd47d0c3da14292d500efce5864a9ec7cb0bc7a0c00a2e8c0ac38fb77",
    ("dblp_bench", "greedy_real_first", "degree_asc"):
        "8be9cc9c9891f4394d9bae2543df0a322d0830cca283dadf6767e08d3a0d387e",
    ("dblp_bench", "greedy_virtual_first", "random"):
        "4488e9fa287390dd1cbfa55afcc08017329aba57c39ccfa5443480187bff4fa7",
    ("dblp_bench", "greedy_virtual_first", "degree_desc"):
        "e6086f06ac60a55e9089b3410f615bb76b20a62f7cda991b0c640281519f0645",
    ("dblp_bench", "greedy_virtual_first", "degree_asc"):
        "7b891ce493cfbd3dbf34a361724f8f118bbf515f1e737d2afa65fd31ed8ac997",
    ("dblp_bench", "naive_real_first", "random"):
        "7b7fc234d538a1a70f122b6281c8213b10cc6e7897fd02206805798c28394966",
    ("dblp_bench", "naive_real_first", "degree_desc"):
        "e44ea13141044e7fd84fa66f179f3e84b9e76bedc1e1981a86003aac9e127178",
    ("dblp_bench", "naive_real_first", "degree_asc"):
        "fc05c3bae360be362af79f66f3436210cf8a25d5617e9684420a5af6d7883912",
    ("dblp_bench", "naive_virtual_first", "random"):
        "90e96884e9cb859876cdcd6bf5782c397c5bbe6c8eaa8bc34554e567ee3166bf",
    ("dblp_bench", "naive_virtual_first", "degree_desc"):
        "73644078a51ae3cb2fb34f4e0c06007e6ef34e639e9c1ee0bb9b9dc40080f336",
    ("dblp_bench", "naive_virtual_first", "degree_asc"):
        "99c49793cc24e0162665c67beaba13ba9e8cf9ac42cba78796d9295c4db2c59a",
    ("dblp_small", "greedy_real_first", "random"):
        "25d9f28dd8ea1269d2a0ba6ae712d7b65bb8161487f9ee6a34f36991fcb06b01",
    ("dblp_small", "greedy_real_first", "degree_desc"):
        "14a5600b66e1f61341407c77d407836f15a0df371d25c15c72f8d6529b7968b8",
    ("dblp_small", "greedy_real_first", "degree_asc"):
        "889c9bf9f5f4ba4100aa3ab34941ee1c68b1bd3fc4454bcf4b92c80f9132eb03",
    ("dblp_small", "greedy_virtual_first", "random"):
        "4ca79e0f34f58dd85bfdcaf1ab9be00bbff2b4c2dcf1df4933206e29a49f7f5c",
    ("dblp_small", "greedy_virtual_first", "degree_desc"):
        "229e6dadc9759a92dc4dfd2cd90f6dc0a80bd9333ef66b52a14cf8d445ad181e",
    ("dblp_small", "greedy_virtual_first", "degree_asc"):
        "f6ad38339996af6bb89396a4b5e1bc9252553f5f46ce562842ee6958224b24aa",
    ("dblp_small", "naive_real_first", "random"):
        "41c6fc6faec95d65fb230058c3c12872c3c7372e10f697f6e30d8f69e2d54d2d",
    ("dblp_small", "naive_real_first", "degree_desc"):
        "e123e6b703acedbd6793a49472a96a5eda9468486cfb193f15ab46291b382ed5",
    ("dblp_small", "naive_real_first", "degree_asc"):
        "85db7076c03887ff3b15ea6a8b414aff8092742f96b210a87bf01d07222ca149",
    ("dblp_small", "naive_virtual_first", "random"):
        "3e6e5189da6957e595dc58aefb8633dc4b6cf2ea2e13e63b03c3991297926054",
    ("dblp_small", "naive_virtual_first", "degree_desc"):
        "28b50d401ef5847efa2e6f8b893edf3c94161a2b8a145faab8d646394a819e63",
    ("dblp_small", "naive_virtual_first", "degree_asc"):
        "c0afcb47e5744be6fb8f648eeaf3425297dcb852f9a88e7a8bc22d764f7ff045",
    ("figure1", "greedy_real_first", "random"):
        "9cbc2968f36e9826cbf53ffb7faa1b937d8636d09bc4edcbd18274eda126a262",
    ("figure1", "greedy_real_first", "degree_desc"):
        "9cbc2968f36e9826cbf53ffb7faa1b937d8636d09bc4edcbd18274eda126a262",
    ("figure1", "greedy_real_first", "degree_asc"):
        "9cbc2968f36e9826cbf53ffb7faa1b937d8636d09bc4edcbd18274eda126a262",
    ("figure1", "greedy_virtual_first", "random"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "greedy_virtual_first", "degree_desc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "greedy_virtual_first", "degree_asc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_real_first", "random"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_real_first", "degree_desc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_real_first", "degree_asc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_virtual_first", "random"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_virtual_first", "degree_desc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("figure1", "naive_virtual_first", "degree_asc"):
        "3b7bae42c2de061273a376440d711c1e29d9bf42acc937d2b6e6acb09abc8c5b",
    ("imdb_small", "greedy_real_first", "random"):
        "a089e2560b3c1c82247c61ca589ec8ad08096b5a4fc39f03cdd0734049d77829",
    ("imdb_small", "greedy_real_first", "degree_desc"):
        "529a7430e015be09323d504ce8baf8622265be5ff403a74537755e9b7fb7ab5a",
    ("imdb_small", "greedy_real_first", "degree_asc"):
        "4e6d6e7f5e93f23b246b7b3233ee2721373f2b5182b14aaad84201066393d24c",
    ("imdb_small", "greedy_virtual_first", "random"):
        "14e7063d51da033b176260667f86fdc0c420f718b1c8e025ff90b352f7fca293",
    ("imdb_small", "greedy_virtual_first", "degree_desc"):
        "4fb87e4bd0d7f352d51f38f651fda45a5252f3075faf476b09da60fbf7decd4a",
    ("imdb_small", "greedy_virtual_first", "degree_asc"):
        "5c4e4d5a5cc535d90f664f0bab1a88589214e93a562e9fd62a4a48e2e243caf5",
    ("imdb_small", "naive_real_first", "random"):
        "31a148de60139195653c371a3d61c960259c5933d6cc08b97d6caf951bfa2db1",
    ("imdb_small", "naive_real_first", "degree_desc"):
        "6c0d66a923f127ab47a7b914321043504e0240f454e02f11320763dafaf0625c",
    ("imdb_small", "naive_real_first", "degree_asc"):
        "59a5ad910a2c51fb38644620c0d730ad7a11aec1f96a5c8fcba2147bb19cceb4",
    ("imdb_small", "naive_virtual_first", "random"):
        "726c9a66250e115516d508c7f1fab7af76f2e75823cf0d343fb58f8f8385136d",
    ("imdb_small", "naive_virtual_first", "degree_desc"):
        "d58efe0c287b86f38e9cc7c3621af87407a55adf12d50b495d3f39991293cdec",
    ("imdb_small", "naive_virtual_first", "degree_asc"):
        "834ee29ee1db83b126efd36936eb3f948b6acb568ccd497fc37b7929700f15b6",
    ("synthetic_1", "greedy_real_first", "random"):
        "b252d9195f52f5dfe72ceee55012fea2ac7812bdd224945f3677a2bb4afa7df5",
    ("synthetic_1", "greedy_real_first", "degree_desc"):
        "6bdeb2891d7a902f1a813326b227c0a0bda2790c7fbad7895441944bb375a956",
    ("synthetic_1", "greedy_real_first", "degree_asc"):
        "e7af0f0d61c6dc7d7f31860688368963f07be3a1231e6a3835ab6208234d6323",
    ("synthetic_1", "greedy_virtual_first", "random"):
        "c7a024b48d81b29d23e29d0fe83483498e32dc9f4adef74b7bdb305beea096e0",
    ("synthetic_1", "greedy_virtual_first", "degree_desc"):
        "ec943c7964aa77898b67a8ec369ef865f9ad99231b407d04b1772e97259261b4",
    ("synthetic_1", "greedy_virtual_first", "degree_asc"):
        "45d651df9724dc6062f63a1c580433079a6379cac2980191f85057cf73b01039",
    ("synthetic_1", "naive_real_first", "random"):
        "4bbe0fe38db820c54c876e2413902823e3a6f09bfe0b4ee376581994f6cf229c",
    ("synthetic_1", "naive_real_first", "degree_desc"):
        "f63670f64ad106238b45a8bf5271a49e9369fd34979cdc07a5e486edd5f79e00",
    ("synthetic_1", "naive_real_first", "degree_asc"):
        "d10345f4ee9266d34803fb09dec928a156ff3e4475a5b827b43611011f0b3262",
    ("synthetic_1", "naive_virtual_first", "random"):
        "3d2a4d308ff4aaf2628e2561f1e59dead0c112d800f7d40c2c56b56aaca81f5d",
    ("synthetic_1", "naive_virtual_first", "degree_desc"):
        "5f070a617b741926b89978596c9776d06fe89f05726012b9206ac162219f28ab",
    ("synthetic_1", "naive_virtual_first", "degree_asc"):
        "909f90618d289bb028199ebb25ef4043f121addd9a2fc9a3c8985bebcd303458",
    ("synthetic_2", "greedy_real_first", "random"):
        "7375c4deac4a4107305ff3c01f3b90183fc7fdde53ec935f12123105834d024d",
    ("synthetic_2", "greedy_real_first", "degree_desc"):
        "7375c4deac4a4107305ff3c01f3b90183fc7fdde53ec935f12123105834d024d",
    ("synthetic_2", "greedy_real_first", "degree_asc"):
        "7375c4deac4a4107305ff3c01f3b90183fc7fdde53ec935f12123105834d024d",
    ("synthetic_2", "greedy_virtual_first", "random"):
        "d060d1ea834d2e7d197382e19620be830c9d40dd6afc4f80c46d6528eebc3620",
    ("synthetic_2", "greedy_virtual_first", "degree_desc"):
        "3b0f40f1c875aa895fad3df9f727a33132d8f52b1294b6ac5373ca19a80a700c",
    ("synthetic_2", "greedy_virtual_first", "degree_asc"):
        "96a84d3c2752a432b6b7bd328371f12ebca38b77ca93ad3f6b5b645605cef52e",
    ("synthetic_2", "naive_real_first", "random"):
        "c4af29f1c958b7dd6a916088421ca9e2e2f2caa38ffd6935fbb28e2179d8cc8d",
    ("synthetic_2", "naive_real_first", "degree_desc"):
        "f4ef01564c37ecb0416332ccfbeeb1aa7e830af534364b3f544042547d62fc17",
    ("synthetic_2", "naive_real_first", "degree_asc"):
        "d30592be8cb72d4e16ff0e14e5bb3aa5a17c5a38478b901dfa16e1a448eb2d43",
    ("synthetic_2", "naive_virtual_first", "random"):
        "8e1764ba2c71a9f729b351c1a9a2ed38d060ebadd2ca7cf85aa74b6b1f866a48",
    ("synthetic_2", "naive_virtual_first", "degree_desc"):
        "7af60f8b7e8a9e285a8d944b716bfbcedbc906c2543bbfd62c9409df35790522",
    ("synthetic_2", "naive_virtual_first", "degree_asc"):
        "c0d9a99f7fc0a61595fbba4175593ba162594aff4ba5924dcb19acaf1e03537a",
}


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("algorithm", sorted(DEDUP1_ALGORITHMS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_dedup1_builds_the_recorded_graph(name, algorithm, ordering):
    result = deduplicate_dedup1(
        condensed_input(name), algorithm=algorithm, ordering=ordering, seed=7
    )
    assert digest(result.condensed) == GOLDEN[name, algorithm, ordering]


@pytest.mark.parametrize("algorithm", ["greedy_virtual_first", "naive_virtual_first"])
def test_virtual_first_probes_only_indexed_candidates(algorithm):
    condensed = condensed_input("dblp_bench")
    assert condensed.num_virtual_nodes > 1000
    before = DedupCounters.pair_tests
    deduplicate_dedup1(condensed, algorithm=algorithm, seed=7)
    assert DedupCounters.pair_tests - before <= 80_000
