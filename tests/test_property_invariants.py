"""Property-based tests (hypothesis) for the core invariants of the paper.

These cover the pipeline-level guarantees:

* the condensed graph built by the extractor is always equivalent to the
  expanded graph built by running the full join, for random databases;
* C-DUP neighbor iteration never yields duplicates, for random condensed
  graphs, even though the structure has duplicate paths;
* DEDUP-1 output is duplication-free and equivalent, with the Graph API
  contract (degree == len(neighbors), exists_edge consistent with neighbors)
  holding on every representation;
* on multi-layer condensed graphs with self-pairs, one-sided virtual nodes
  and vertices reachable only through virtual nodes, every condensed
  representation's neighbours are a brute-force Section 4.1 reachability
  (each once, in snapshot row order), and stay equal to EXP's through any
  sequence of edge and vertex mutations;
* a session that reopens a persisted snapshot on its source fingerprint
  (no tables loaded, nothing extracted) answers exactly like the cold
  session that extracted it;
* the dynamic maintainers (``repro.incremental``), on either backend and
  over any sequence of journal windows, return what a cold recompute of the
  current snapshot returns — or refuse exactly where the repair would not
  be exact;
* an analysis plan — any request list over the whole registry, duplicates
  included — returns for every request exactly what that request's kernel
  runner returns alone, traversing each source at most once;
* the three extraction engines agree — graph and Table-1 counters — on
  generated tables (duplicate rows, ``NULL`` join values, dangling
  endpoints) for every rule shape, before and after every batch of appended
  rows and a ``clear()`` + refill, and the SQLite mirror that followed those
  changes holds what a freshly loaded one holds;
* every engine's expanded graph is the rule's full join, evaluated by brute
  force (restricted to the Nodes ids when unknown endpoints are skipped), and
  every engine skips the same tuples — the one loader's oracle;
* the planner cuts a chain exactly where the join's true output exceeds
  twice its inputs, and plans the same under every extraction engine
  without touching the SQLite mirror.
"""

from __future__ import annotations

import sys
import tempfile
from copy import deepcopy
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro import algorithms
from repro.algorithms.similarity import SCORE_NAMES
from repro.algorithms.triangles import clustering_from_counts
from repro.core import EXTRACT_ENGINES, GraphGen
from repro.dedup import (
    DEDUP1_ALGORITHMS,
    ORDERINGS,
    DedupState,
    deduplicate_dedup1,
    preprocess_bitmap,
)
from repro.exceptions import DeduplicationError
from repro.graph import (
    CDupGraph,
    CondensedGraph,
    ExpandedGraph,
    expanded_from_condensed,
    logical_edge_set,
    logically_equivalent,
)
from repro.graph.backend import get_backend, numpy_available, set_default_backend
from repro.graph.delta import DeltaOverlay, JournaledGraph
from repro.graph.kernel import CSRGraph
from repro.incremental import MAINTAINERS
from repro.incremental.base import RepairCounters
from repro.relational.csv_io import write_database
from repro.relational.database import Database
from repro.relational.query import Comparison, ConjunctiveQuery, QueryAtom, evaluate_bruteforce
from repro.relational.schema import Column, TableSchema
from repro.relational.sqlite_backend import SQLiteBackend
from repro.relational.table import Table
from repro.session import GraphSession
from repro.session.compiler import CompilerCounters
from repro.session.plan import PLAN_ALGORITHMS

from tests.conftest import CONDENSE_ALL, CONDENSE_NONE, large_output_factor
from tests.test_pushdown_extraction import REPORT_FIELDS, signature


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def author_pub_database(draw):
    """A random tiny DBLP-shaped database."""
    num_authors = draw(st.integers(2, 12))
    num_pubs = draw(st.integers(1, 8))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, num_authors - 1), st.integers(0, num_pubs - 1)),
            min_size=1,
            max_size=40,
        )
    )
    db = Database("prop_dblp")
    db.create_table("Author", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("AuthorPub", [("aid", "int"), ("pid", "int")])
    db.insert("Author", [(a, f"a{a}") for a in range(num_authors)])
    db.insert("AuthorPub", sorted(pairs))
    return db


@st.composite
def random_condensed(draw, min_real=2, symmetric=False):
    """A random single-layer condensed graph (possibly with direct edges,
    self-loops and isolated vertices); ``symmetric`` mirrors every edge."""
    num_real = draw(st.integers(min_real, 15))
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    num_virtual = draw(st.integers(0, 6)) if num_real else 0
    for label in range(num_virtual):
        in_side = draw(st.lists(st.integers(0, num_real - 1), min_size=1, max_size=5, unique=True))
        out_side = in_side if symmetric else draw(
            st.lists(st.integers(0, num_real - 1), min_size=1, max_size=5, unique=True)
        )
        virtual = graph.add_virtual_node(("v", label))
        for node in in_side:
            graph.add_edge(graph.internal(node), virtual)
        for node in out_side:
            graph.add_edge(virtual, graph.internal(node))
    direct = draw(
        st.sets(
            st.tuples(st.integers(0, num_real - 1), st.integers(0, num_real - 1)),
            max_size=10,
        )
        if num_real
        else st.just(set())
    )
    for source, target in direct:
        graph.add_edge(graph.internal(source), graph.internal(target))
        if symmetric:
            graph.add_edge(graph.internal(target), graph.internal(source))
    return graph


COAUTHOR = """
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
"""


# --------------------------------------------------------------------------- #
# pipeline-level invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(author_pub_database(), st.booleans(), st.booleans())
def test_property_condensed_extraction_equals_full_join(db, force_virtual, preprocess):
    with large_output_factor(CONDENSE_ALL if force_virtual else 2):
        gg = GraphGen(db, preprocess=preprocess)
        result = gg.extract_with_report(COAUTHOR, representation="cdup")
    with large_output_factor(CONDENSE_NONE):
        reference = GraphGen(db).extract(COAUTHOR, representation="exp")
    assert logically_equivalent(result.graph, reference)
    # linear-size guarantee: virtual-node encoding stores at most two edges
    # per base-table row; direct (deduplicated) materialisation stores at most
    # the logical edge count.  The extractor may mix the two regimes per
    # virtual node, so the sum bounds every plan it can choose.
    assert result.report.condensed_edges <= 2 * db.total_rows() + reference.num_edges()


@settings(max_examples=40, deadline=None)
@given(random_condensed())
def test_property_cdup_iteration_has_no_duplicates(condensed):
    graph = CDupGraph(condensed)
    for vertex in graph.get_vertices():
        neighbors = list(graph.get_neighbors(vertex))
        assert len(neighbors) == len(set(neighbors))
        assert set(neighbors) == {
            condensed.external(t) for t in condensed.neighbor_set(condensed.internal(vertex))
        }


@settings(max_examples=40, deadline=None)
@given(
    random_condensed(),
    st.sampled_from(sorted(DEDUP1_ALGORITHMS)),
    st.sampled_from(sorted(ORDERINGS)),
)
def test_property_dedup1_and_bitmap_preserve_graph(condensed, algorithm, ordering):
    """Every DEDUP-1 algorithm x ordering removes all duplication without
    changing the graph, and the masks and counters its ``DedupState`` kept up
    to date in place equal a fresh state's full recompute on the result."""
    reference = expanded_from_condensed(condensed)
    module = sys.modules[DEDUP1_ALGORITHMS[algorithm].__module__]
    states: list[DedupState] = []

    class RecordingState(DedupState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    with mock.patch.object(module, "DedupState", RecordingState):
        dedup1 = deduplicate_dedup1(condensed, algorithm=algorithm, ordering=ordering, seed=0)
    bitmap = preprocess_bitmap(condensed, algorithm="bitmap2")
    assert not dedup1.condensed.has_duplication()
    assert logically_equivalent(dedup1, reference)
    assert logically_equivalent(bitmap, reference)

    (maintained,) = states
    fresh = DedupState(dedup1.condensed)
    assert maintained.in_masks == fresh.in_masks
    assert maintained.out_masks == fresh.out_masks
    assert maintained.single_path == fresh.single_path
    assert maintained.cover == fresh.cover


@settings(max_examples=25, deadline=None)
@given(random_condensed())
def test_property_graph_api_contract(condensed):
    """degree == number of neighbors, exists_edge consistent, num_edges sums."""
    for graph in (CDupGraph(condensed.copy()), expanded_from_condensed(condensed)):
        edge_set = logical_edge_set(graph)
        total = 0
        for vertex in graph.get_vertices():
            neighbors = list(graph.get_neighbors(vertex))
            assert graph.degree(vertex) == len(neighbors)
            total += len(neighbors)
            for neighbor in neighbors:
                assert graph.exists_edge(vertex, neighbor)
        assert graph.num_edges() == total == len(edge_set)


# --------------------------------------------------------------------------- #
# the virtual-layer walk: an independent reference and a mutation oracle
# --------------------------------------------------------------------------- #
@st.composite
def virtual_layer_graphs(draw):
    """A random condensed graph with one to three virtual layers.

    Always present: a chain ``0 -> V_0 -> ... -> V_k`` that leaves to ``0``
    (a self-pair) and to the last real node, which no direct edge enters (it
    is reachable only through virtual nodes); and a virtual node with an
    empty in- or out-side.  Around them: random virtual nodes on random
    layers, virtual->virtual edges from lower to higher layers (so the graph
    stays a DAG) and direct real->real edges.  Returns ``(graph, reals,
    edges)``: the condensed edges as added, for the brute-force reference.
    """
    num_real = draw(st.integers(3, 8))
    layers = draw(st.integers(1, 3))
    reals = st.integers(0, num_real - 1)
    graph = CondensedGraph()
    for node in range(num_real):
        graph.add_real_node(node)
    hidden = num_real - 1

    chain = [graph.add_virtual_node(("chain", layer)) for layer in range(layers)]
    edges = [(0, chain[0]), *zip(chain, chain[1:]), (chain[-1], 0), (chain[-1], hidden)]
    empty = graph.add_virtual_node(("empty", 0))
    side = draw(st.lists(reals, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        edges += [(node, empty) for node in side]
    else:
        edges += [(empty, node) for node in side]

    leveled = list(enumerate(chain))
    for label in range(draw(st.integers(0, 4))):
        virtual = graph.add_virtual_node(("v", label))
        leveled.append((draw(st.integers(0, layers - 1)), virtual))
        edges += [(node, virtual) for node in draw(st.lists(reals, max_size=4, unique=True))]
        edges += [(virtual, node) for node in draw(st.lists(reals, max_size=4, unique=True))]
    downward = [(a, b) for la, a in leveled for lb, b in leveled if la < lb and (a, b) not in edges]
    if downward:
        edges += draw(st.lists(st.sampled_from(downward), max_size=4, unique=True))
    edges += draw(
        st.lists(st.tuples(reals, st.integers(0, num_real - 2)), max_size=6, unique=True)
    )
    for source, target in edges:
        graph.add_edge(source, target)
    return graph, set(range(num_real)), edges


def _brute_force_edges(reals: set, edges: list) -> set:
    """Section 4.1 by brute force: ``u -> v`` iff some condensed path from
    ``u`` to ``v`` has only virtual (non-real) interior nodes."""
    out: dict = {}
    for source, target in edges:
        out.setdefault(source, []).append(target)
    logical = set()
    for u in reals:
        seen: set = set()
        frontier = list(out.get(u, ()))
        while frontier:
            node = frontier.pop()
            if node in reals:
                logical.add((u, node))
            elif node not in seen:
                seen.add(node)
                frontier.extend(out.get(node, ()))
    return logical


def _condensed_representations(graph: CondensedGraph, algorithm: str) -> dict:
    """C-DUP, BITMAP-1, BITMAP-2 and — where its builder accepts the graph —
    DEDUP-1, each over its own copy."""
    representations = {
        "C-DUP": CDupGraph(graph.copy()),
        "BITMAP-1": preprocess_bitmap(graph, algorithm="bitmap1"),
        "BITMAP-2": preprocess_bitmap(graph, algorithm="bitmap2"),
    }
    try:
        representations["DEDUP-1"] = deduplicate_dedup1(graph.copy(), algorithm=algorithm)
    except DeduplicationError:
        assert not graph.is_single_layer(), "DEDUP-1 refused a single-layer graph"
    return representations


def _adjacency(graph) -> dict:
    return {vertex: list(graph.get_neighbors(vertex)) for vertex in graph.get_vertices()}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(virtual_layer_graphs(), st.sampled_from(sorted(DEDUP1_ALGORITHMS)))
def test_property_every_walk_matches_brute_force_reachability(case, algorithm):
    """Every condensed representation's neighbours are the brute-force
    logical edges, each once; ``exists_edge`` agrees on every pair; and
    ``get_neighbors`` lists them in the snapshot's row order."""
    graph, reals, edges = case
    expected = _brute_force_edges(reals, edges)
    assert any(graph.is_virtual(t) for t in graph.out(0))  # the chain is there
    for name, representation in _condensed_representations(graph, algorithm).items():
        adjacency = _adjacency(representation)
        for vertex, neighbors in adjacency.items():
            assert len(neighbors) == len(set(neighbors)), (name, vertex, neighbors)
        assert {(u, v) for u, vs in adjacency.items() for v in vs} == expected, name
        for u in reals:
            for v in reals:
                assert representation.exists_edge(u, v) == ((u, v) in expected), (name, u, v)
        csr = representation.snapshot()
        assert [csr.external(i) for i in range(csr.n)] == list(adjacency), name
        for i in range(csr.n):
            rows = [csr.external(t) for t in csr.neighbors(i)]
            assert rows == adjacency[csr.external(i)], (name, csr.external(i))


@st.composite
def mutation_sequences(draw):
    """A :func:`virtual_layer_graphs` graph and up to eight ``add_edge`` /
    ``delete_edge`` / ``delete_vertex`` operations on its vertex ids (a
    ``delete_edge`` picks among the logical edges present when it runs)."""
    graph, reals, _ = draw(virtual_layer_graphs())
    vertex = st.integers(0, len(reals) - 1)
    op = st.sampled_from(("add_edge", "delete_edge", "delete_vertex"))
    ops = draw(st.lists(st.tuples(op, vertex, vertex), min_size=1, max_size=8))
    return graph, ops


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutation_sequences(), st.sampled_from(sorted(DEDUP1_ALGORITHMS)))
def test_property_mutations_keep_every_representation_equal_to_exp(case, algorithm):
    """After every operation of a mutation sequence, each condensed
    representation holds EXP's logical edge set, with no repeated neighbour.
    BITMAP is the sharp case: ``delete_edge`` must decide with its own
    filtered walk, and ``delete_vertex`` must keep the bitmaps positional."""
    graph, ops = case
    exp = expanded_from_condensed(graph)
    representations = _condensed_representations(graph, algorithm)
    for op, a, b in ops:
        if op == "delete_edge":
            present = sorted(logical_edge_set(exp))
            if not present:
                continue
            args = present[a % len(present)]
        elif op == "delete_vertex":
            if not exp.has_vertex(a):
                continue
            args = (a,)
        else:
            args = (a, b)
        for mutated in (exp, *representations.values()):
            getattr(mutated, op)(*args)
        expected = logical_edge_set(exp)
        for name, representation in representations.items():
            adjacency = _adjacency(representation)
            for vertex, neighbors in adjacency.items():
                assert len(neighbors) == len(set(neighbors)), (name, op, args, vertex)
            assert set(adjacency) == set(exp.get_vertices()), (name, op, args)
            assert logical_edge_set(representation) == expected, (name, op, args)


# --------------------------------------------------------------------------- #
# copy-on-write: a copy and its source never see each other's writes
# --------------------------------------------------------------------------- #
COPY_MUTATORS = (
    "add_edge",
    "remove_edge",
    "load_edges",
    "bulk_add_real_nodes",
    "add_real_node",
    "set_property",
    "remove_virtual_node",
    "restore_virtual_node",
    "remove_real_node",
    "copy",
)


def _cow_rows(graph: CondensedGraph) -> tuple:
    return graph.succ, graph.pred, graph.node_properties, graph.edge_annotations


def _mutate(graph: CondensedGraph, removed: list, op: str, a: int, b: int) -> tuple:
    """One concrete call of mutator ``op`` on ``graph``, its arguments
    picked by ``a`` / ``b`` from the graph's state (so a graph with the same
    rows gets the same call); ``removed`` holds the virtual nodes removed so
    far, for ``restore_virtual_node``.  Returns ``(method, args, kwargs)``,
    or ``None`` when the graph offers no such call."""
    reals, virtuals = sorted(graph.real_nodes()), sorted(graph.virtual_nodes())
    externals = sorted(graph.external_ids()) + [100 + a]
    nodes = reals + virtuals
    if op == "add_edge" and nodes and reals:
        source = nodes[a % len(nodes)]
        # into a real node, or real -> virtual: the virtual layer stays a DAG
        pool = virtuals + reals if source >= 0 else reals
        return "add_edge", (source, pool[b % len(pool)]), {}
    if op == "remove_edge":
        edges = [(s, t) for s in sorted(graph.succ) for t in graph.succ[s]]
        return ("remove_edge", edges[a % len(edges)], {}) if edges else None
    if op == "load_edges":
        count = len(externals)
        rows = [(externals[(a + i) % count], externals[(b + 2 * i) % count], i) for i in range(3)]
        return "load_edges", (rows,), {"skip_unknown": False, "property_names": ["w"]}
    if op == "bulk_add_real_nodes":
        rows = [(externals[(a + i) % len(externals)], f"p{b}") for i in range(2)]
        return "bulk_add_real_nodes", (rows,), {"property_names": ["p"]}
    if op == "add_real_node":
        return "add_real_node", (externals[a % len(externals)],), {f"k{b % 2}": b}
    if op == "set_property" and reals:
        return "set_property", (externals[a % (len(externals) - 1)], f"k{b % 2}", a), {}
    if op == "remove_virtual_node" and virtuals:
        virtual = virtuals[a % len(virtuals)]
        label = graph.virtual_labels[virtual]
        removed.append((virtual, label, list(graph.inn(virtual)), list(graph.out(virtual))))
        return "remove_virtual_node", (virtual,), {}
    if op == "restore_virtual_node" and removed:
        virtual, label, ins, outs = removed.pop(a % len(removed))
        present = graph.succ
        ins, outs = [n for n in ins if n in present], [n for n in outs if n in present]
        return "restore_virtual_node", (virtual, label, ins, outs), {}
    if op == "remove_real_node" and reals:
        return "remove_real_node", (reals[a % len(reals)],), {}
    return None


def _call(graph: CondensedGraph, call: tuple) -> None:
    method, args, kwargs = call
    if method == "set_property":
        CDupGraph(graph).set_property(*args)
    else:
        getattr(graph, method)(*args, **kwargs)


@st.composite
def copy_scenarios(draw):
    """A :func:`random_condensed` or :func:`virtual_layer_graphs` graph and
    up to twelve ``(graph index, mutator, a, b)`` steps over it and its
    copies; ``copy`` appends a copy of the graph at that index."""
    if draw(st.booleans()):
        graph = draw(random_condensed(min_real=1))
    else:
        graph = draw(virtual_layer_graphs())[0]
    small = st.integers(0, 40)
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(COPY_MUTATORS), small, small),
            min_size=1,
            max_size=12,
        )
    )
    return graph, steps


@settings(max_examples=120, deadline=None, derandomize=True)
@given(copy_scenarios())
def test_property_a_copy_and_its_source_never_see_each_others_writes(case):
    """Two copies of one source and a copy of a copy, then random mutator
    calls on any of them: each graph's ``succ`` / ``pred`` /
    ``node_properties`` / ``edge_annotations`` equal a ``deepcopy`` taken
    when it was last written, and the written graph equals a deep-copied
    twin that shares nothing and got the same calls."""
    source, steps = case
    # shared before the copies: a property dict per real node, annotated
    # direct edges, and a removed virtual node whose neighbours' rows a
    # restore writes
    externals = sorted(source.external_ids())
    source.bulk_add_real_nodes([(e, f"p{e}") for e in externals], property_names=["p"])
    pairs = [(e, externals[-1 - i], i) for i, e in enumerate(externals)]
    source.load_edges(pairs, property_names=["w"])
    removed_first: list = []
    call = _mutate(source, removed_first, "remove_virtual_node", 0, 0)
    if call is not None:
        _call(source, call)
    graphs = [source]
    for index in (0, 0, 1):  # two copies of the source, one of its copy
        graphs.append(graphs[index].copy())
    twins = [deepcopy(graph) for graph in graphs]
    expected = [deepcopy(_cow_rows(graph)) for graph in graphs]
    removed = [list(removed_first) for _ in graphs]
    for index, op, a, b in steps:
        index %= len(graphs)
        graph = graphs[index]
        if op == "copy":
            graphs.append(graph.copy())
            twins.append(deepcopy(twins[index]))
            expected.append(deepcopy(_cow_rows(graph)))
            removed.append(list(removed[index]))
            continue
        call = _mutate(graph, removed[index], op, a, b)
        if call is None:
            continue
        _call(graph, call)
        _call(twins[index], call)
        assert _cow_rows(graph) == _cow_rows(twins[index]), call
        expected[index] = deepcopy(_cow_rows(graph))
        for other, rows in zip(graphs, expected):
            assert _cow_rows(other) == rows, (index, call)


# --------------------------------------------------------------------------- #
# trusted reopen == cold extraction
# --------------------------------------------------------------------------- #
REOPEN_RULES = (
    "Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).",
    "Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID), PubID >= 2.",
    "Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID), PubID <= 4.",
)  # filters on the join key only: every rule stays symmetric (DEDUP-2 needs that)


def _reopen_answers(handle) -> dict:
    report = (
        handle.analyze().degree().components().triangles().kcore().pagerank().closeness().run()
    )
    return {result.algorithm: result.values for result in report}


def _assert_same_answers(left, right, tolerance=1e-9):
    """ints (and labels) exact, floats within ``tolerance``."""
    if isinstance(left, float) or isinstance(right, float):
        assert abs(left - right) <= tolerance
    elif isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            _assert_same_answers(left[key], right[key], tolerance)
    elif isinstance(left, list):
        assert len(left) == len(right)
        for ours, theirs in zip(left, right):
            _assert_same_answers(ours, theirs, tolerance)
    else:
        assert left == right


@settings(max_examples=20, deadline=None)
@given(
    author_pub_database(),
    st.sampled_from(REOPEN_RULES),
    st.sampled_from(["cdup", "exp", "dedup1", "dedup2", "bitmap", "auto"]),
    st.booleans(),
)
def test_property_trusted_reopen_answers_like_a_cold_session(
    db, edge_rule, representation, force_virtual
):
    query = "Nodes(ID, Name) :- Author(ID, Name).\n" + edge_rule
    with tempfile.TemporaryDirectory(prefix="ggprop-") as scratch, large_output_factor(
        CONDENSE_ALL if force_virtual else 2
    ):
        data, cache = Path(scratch, "data"), Path(scratch, "snaps")
        write_database(db, data)

        def fresh_session() -> GraphSession:
            return GraphSession(data, snapshot_cache=str(cache))

        cold_session = fresh_session()
        cold = cold_session.graph(query, representation=representation)
        expected = _reopen_answers(cold)
        assert cold_session.store.counters["source-hit"] == 0

        warm_session = fresh_session()
        warm = warm_session.graph(query, representation=representation)
        assert warm_session.store.counters["source-hit"] == 1
        assert warm.representation == cold.representation
        _assert_same_answers(_reopen_answers(warm), expected)
        assert warm.snapshot_source == "mmap"  # still nothing extracted


# --------------------------------------------------------------------------- #
# incremental maintenance: maintained == cold, numpy == python, same refusals
# --------------------------------------------------------------------------- #
MAINTAINER_BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
MAINTAINED_PAGERANK = {"damping": 0.85, "tolerance": 1e-12, "max_iterations": 1000}
BFS_SOURCE = 0


@st.composite
def journal_windows(draw):
    """A small graph (directed or symmetric; isolated — dangling — vertices
    and self-loops allowed; half the time over a path ``0 -> 1 -> ...``, so a
    shortcut improves a whole region) plus a few journal windows.  An op
    is ``("add", u, v)`` (``u``/``v`` may be new vertices), ``("remove", k)``
    / ``("flip", k)`` — delete the k-th present edge, ``flip`` re-adding it
    inside the same window — or ``("fan_in", hub)`` / ``("fan_out", hub)``:
    an edge between the hub and *every* vertex, so the delta covers the whole
    graph (and, after a fan-in, no vertex dangles).  A window may be preceded
    by a journal compaction."""
    size = draw(st.integers(2, 12))
    vertex = st.integers(0, size + 3)
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    op = st.one_of(
        st.tuples(st.just("add"), vertex, vertex),
        st.tuples(st.sampled_from(["remove", "flip"]), st.integers(0, 50)),
        st.tuples(st.sampled_from(["fan_in", "fan_out"]), st.integers(0, size - 1)),
    )
    windows = st.lists(
        st.tuples(st.booleans(), st.lists(op, min_size=1, max_size=6)), min_size=1, max_size=4
    )
    edges = draw(st.sets(pairs, max_size=30))
    if draw(st.booleans()):
        edges |= {(v, v + 1) for v in range(size - 1)}
    return size, draw(st.booleans()), edges, draw(windows)


def _apply(graph: JournaledGraph, symmetric: bool, op: tuple) -> None:
    def both(mutate, u, v):
        mutate(u, v)
        if symmetric and u != v:
            mutate(v, u)

    if op[0] == "add":
        both(graph.add_edge, op[1], op[2])
    elif op[0] in ("fan_in", "fan_out"):
        for vertex in list(graph.get_vertices()):
            both(graph.add_edge, *((vertex, op[1]) if op[0] == "fan_in" else (op[1], vertex)))
    else:
        present = sorted(logical_edge_set(graph.inner))
        if present:
            u, v = present[op[1] % len(present)]
            both(graph.delete_edge, u, v)
            if op[0] == "flip":
                both(graph.add_edge, u, v)


#: each maintainer's request, as the plan would hold it
MAINTAINED_PARAMS = {
    "components": {},
    "bfs": {"source": BFS_SOURCE, "max_depth": None},
    "pagerank": MAINTAINED_PAGERANK,
    "triangle-counts": {},
}


#: a registry entry naming each maintainer (entries naming one share its
#: ``dense`` vector)
ENTRY_OF = {spec.maintainer: spec for spec in PLAN_ALGORITHMS.values() if spec.maintainer}


def _cold(csr) -> dict[str, list]:
    reference = get_backend("python")
    return {
        name: ENTRY_OF[name].dense(csr, reference, params)
        for name, params in MAINTAINED_PARAMS.items()
    }


def _undirected_pairs(csr) -> set[frozenset]:
    """The snapshot's undirected adjacency as external-ID pairs, no loops."""
    ids = csr.external_ids
    return {frozenset((ids[u], ids[v])) for u, v in csr.iter_edges() if u != v}


#: a triangle losing two sides in one window: each removal's common
#: neighbours must be read off the old graph, the other removal undone
TWO_SIDES_OF_A_TRIANGLE = (3, True, {(0, 1), (1, 2), (0, 2)}, [(False, [("remove", 0), ("remove", 1)])])


@settings(max_examples=60, deadline=None)
@example(TWO_SIDES_OF_A_TRIANGLE)
@given(journal_windows())
def test_property_maintained_results_equal_a_cold_recompute(case):
    size, symmetric, edges, windows = case
    inner = ExpandedGraph()
    for v in range(size):
        inner.add_vertex(v)
    graph = JournaledGraph(inner)
    for u, v in sorted(edges):
        _apply(graph, symmetric, ("add", u, v))
    params = MAINTAINED_PARAMS
    before = graph.snapshot()
    prev = _cold(before)
    for compact, ops in windows:
        if compact:
            graph.rebase_onto(graph.snapshot())  # what the store's compaction does
        position = graph.journal.total
        for op in ops:
            _apply(graph, symmetric, op)
        csr = graph.snapshot()
        assert csr.external_ids[: before.n] == before.external_ids  # prefix stability
        delta = DeltaOverlay(graph.journal.records_since(position))
        cold = _cold(csr)

        # the refusals, stated on the window: components refuses any removal;
        # BFS repairs every window (it refuses depth-limited results only);
        # triangle counts never refuse
        refused = {
            "components": bool(delta.removed),
            "bfs": False,
            "pagerank": False,
            "triangle-counts": False,
        }
        # a pure removal window resets exactly the vertices whose distance grew
        grew = sum(
            old >= 0 and (new < 0 or new > old) for old, new in zip(prev["bfs"], cold["bfs"])
        )
        # the triangle repair processes exactly the pairs whose undirected
        # adjacency changed
        flipped = len(_undirected_pairs(before) ^ _undirected_pairs(csr))
        maintained = {}
        for backend in map(get_backend, MAINTAINER_BACKENDS):
            csr._backend_cache.pop("rev_csr", None)  # each backend derives its own
            for name, maintain in MAINTAINERS.items():
                resets = RepairCounters.bfs_resets
                pairs = RepairCounters.triangle_pairs
                dense = maintain(prev[name], csr, delta, params[name], backend)
                assert (dense is None) == refused[name], (name, backend.name)
                if name == "bfs" and not delta.added:
                    assert RepairCounters.bfs_resets - resets == grew
                if name == "triangle-counts":
                    assert RepairCounters.triangle_pairs - pairs == flipped
                if name == "triangle-counts":
                    # integers: exactly cold; and the clustering shaped from
                    # them is a cold plan's float, bit for bit
                    assert dense == cold[name], backend.name
                    clustering = PLAN_ALGORITHMS["clustering"].kernel(csr, backend, {})
                    assert clustering_from_counts(csr, dense) == clustering, backend.name
                elif dense is not None:
                    # == cold, and so numpy == python
                    _assert_same_answers(dict(enumerate(dense)), dict(enumerate(cold[name])))
                if dense is not None:
                    maintained[name] = dense
            depth_limited = {"source": BFS_SOURCE, "max_depth": 3}
            assert MAINTAINERS["bfs"](prev["bfs"], csr, delta, depth_limited, backend) is None
        # like the session: carry what was maintained, recompute what was refused
        prev = {name: maintained.get(name, cold[name]) for name in MAINTAINERS}
        before = csr


# --------------------------------------------------------------------------- #
# analysis plans: every request == its runner alone == its free function,
# numpy == python
# --------------------------------------------------------------------------- #
#: registry name -> the free function that is ``graph.snapshot()`` + the
#: algorithm's check + its runner (the plan params are its keyword arguments)
FREE_FUNCTIONS = {
    "degree": algorithms.degrees,
    "pagerank": algorithms.pagerank,
    "components": algorithms.connected_components,
    "bfs": algorithms.bfs_distances,
    "kcore": algorithms.core_numbers,
    "triangles": algorithms.count_triangles,
    "clustering": algorithms.average_clustering,
    "label_propagation": algorithms.label_propagation,
    "closeness": algorithms.closeness_centrality,
    "betweenness": algorithms.betweenness_centrality,
    "diameter": algorithms.approximate_diameter,
    "link_predictions": algorithms.link_predictions,
}


@st.composite
def plans_over_condensed(draw):
    """A condensed graph (directed or symmetric; ``n`` from 0 up) and a
    request list drawn from the whole registry with generated parameters:
    bfs with and without ``max_depth``; unsampled, sampled and oversampled
    betweenness; diameter up to ``samples >= n`` — with or without the
    closeness / full-betweenness demand that makes the sweep cover every
    source — then some of the requests repeated."""
    condensed = draw(random_condensed(min_real=0, symmetric=draw(st.booleans())))
    n = condensed.num_real_nodes
    seeds = st.integers(0, 3)
    choices = [
        st.tuples(st.sampled_from(["degree", "components", "kcore", "triangles", "clustering"]),
                  st.just({})),
        st.just(("closeness", {})),
        st.just(("pagerank", {})),
        st.tuples(st.just("pagerank"), st.fixed_dictionaries({
            "damping": st.sampled_from([0.5, 0.85, 0.9]),
            "max_iterations": st.integers(1, 12),
            "tolerance": st.just(0.0),
        })),
        st.tuples(st.just("label_propagation"), st.fixed_dictionaries({
            "max_iterations": st.integers(1, 6), "seed": seeds,
        })),
        st.tuples(st.just("betweenness"), st.fixed_dictionaries({
            "normalized": st.booleans(),
            "sample_size": st.none() | st.integers(1, n + 3),
            "seed": seeds,
        })),
        st.tuples(st.just("diameter"), st.fixed_dictionaries({
            "samples": st.integers(1, n + 3), "seed": seeds,
        })),
        st.tuples(st.just("link_predictions"), st.fixed_dictionaries({
            "k": st.integers(1, 6), "score": st.sampled_from(sorted(SCORE_NAMES)),
        })),
    ]
    if n:
        choices.append(st.tuples(st.just("bfs"), st.fixed_dictionaries({
            "source": st.integers(0, n - 1), "max_depth": st.none() | st.integers(0, 4),
        })))
    requests = draw(st.lists(st.one_of(choices), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(requests), max_size=3))
    return condensed, requests + repeats


@settings(max_examples=60, deadline=None)
@given(plans_over_condensed())
def test_property_plan_results_equal_their_kernel_runners(case):
    """All three paths to a registry algorithm agree with ``==`` on each
    backend: the plan result, its runner alone, and its free function under
    the same backend."""
    condensed, requests = case
    graph = CDupGraph(condensed)
    values = {}
    for name in MAINTAINER_BACKENDS:
        handle = GraphSession(Database("prop_plan"), backend=name).wrap(graph)
        csr = handle.snapshot()
        plan = handle.analyze()
        for algorithm, params in requests:
            plan.add(algorithm, **params)
        swept_before = CompilerCounters.sweep_traversals
        report = plan.run()
        assert CompilerCounters.sweep_traversals - swept_before <= csr.n
        seen = set()
        previous = set_default_backend(name)
        try:
            for result in report:
                runner = PLAN_ALGORITHMS[result.algorithm].kernel
                assert result.values == runner(csr, get_backend(name), result.params), result.label
                free = FREE_FUNCTIONS[result.algorithm](graph, **result.params)
                assert result.values == free, result.label
                key = (result.algorithm, repr(sorted(result.params.items())))
                assert result.reused == (key in seen), result.label
                seen.add(key)
        finally:
            set_default_backend(previous)
        values[name] = [
            # near-tied float scores may rank differently: compare the scores
            sorted(score for _, _, score in result.values)
            if result.algorithm == "link_predictions"
            else result.values
            for result in report
        ]
    for name in MAINTAINER_BACKENDS[1:]:
        _assert_same_answers(values[name], values["python"])


# --------------------------------------------------------------------------- #
# extraction engines x appended rows
# --------------------------------------------------------------------------- #
#: rule shape -> (Edges rule, is it a chain the planner can cut into segments)
ENGINE_RULES = {
    "symmetric": ("Edges(A, B) :- R(A, P), R(B, P).", True),
    "asymmetric": ("Edges(A, B) :- R(A, P), T(B, P).", True),
    "two-layer": ("Edges(A, B) :- R(A, P), S(P, Y), S(Q, Y), R(B, Q).", True),
    "filter-segment": ("Edges(A, B) :- R(A, P), R(B, P), S(P, Y), Y >= 1.", True),
    "full": ("Edges(A, B) :- R(A, P), R(B, P), T(A, Q), T(B, Q).", False),
    "aggregate": ("Edges(A, B, count(P)) :- R(A, P), R(B, P).", False),
}
ENGINE_TABLES = {"R": ("a", "p"), "S": ("p", "y"), "T": ("b", "p")}


@st.composite
def growing_tables(
    draw,
    shapes=tuple(sorted(ENGINE_RULES)),
    factors=(CONDENSE_ALL, 2, CONDENSE_NONE),
    appends=st.integers(0, 3),
):
    """One or two rule shapes, extraction options, and a history of the four
    tables they read: initial rows, then ``appends`` (0-3) append batches with
    one ``clear()`` + refill of the edge tables somewhere among them.  Some
    appends grow ``Node`` instead, by ids that earlier edge rows named while
    no Nodes row had them.

    A ``NULL`` join value only meets the engines where the join is a chain
    boundary (a forced-condensed plan): inside one query the python evaluator
    joins ``None`` to ``None`` and SQL's ``=`` does not — an input-semantics
    difference between the python and SQL engines that is older than, and
    not the subject of, this property."""
    # two rules can produce the same direct edge: added once, by every engine
    shapes = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=2))
    rules = " ".join(ENGINE_RULES[shape][0] for shape in shapes)
    nulls = all(ENGINE_RULES[shape][1] for shape in shapes) and draw(st.booleans())
    factor = CONDENSE_ALL if nulls else draw(st.sampled_from(factors))
    options = {
        "skip_unknown_endpoints": draw(st.booleans()),
        "preprocess": draw(st.booleans()),
    }
    num_nodes = draw(st.integers(1, 5))
    # endpoints num_nodes and num_nodes + 1 are not produced by the Nodes rule
    endpoint = st.integers(0, num_nodes + 1)
    join_value = st.integers(0, 3) | st.none() if nulls else st.integers(0, 3)
    rows = {
        "R": st.lists(st.tuples(endpoint, join_value), max_size=10),
        "S": st.lists(st.tuples(join_value, join_value), max_size=6),
        "T": st.lists(st.tuples(endpoint, join_value), max_size=6),
    }
    state = st.fixed_dictionaries(rows)
    # an append either adds edge rows or grows Node alone, so the rows
    # skipped for the new ids are not simply read again
    unknown = st.tuples(st.integers(num_nodes, num_nodes + 1))
    grown = state | st.fixed_dictionaries({"Node": st.lists(unknown, min_size=1, max_size=2)})
    steps = [("append", draw(grown))]
    steps += [("append", draw(grown)) for _ in range(draw(appends))]
    steps.insert(draw(st.integers(1, len(steps))), ("refill", draw(state)))
    return f"Nodes(ID) :- Node(ID). {rules}", factor, options, num_nodes, steps


@settings(max_examples=60, deadline=None)
@given(growing_tables())
def test_property_engines_agree_while_tables_grow(case):
    query, factor, options, num_nodes, steps = case
    db = Database("prop_grow")
    db.create_table("Node", [("id", "int")])
    db.insert("Node", [(i,) for i in range(num_nodes)])
    for name, columns in ENGINE_TABLES.items():
        db.add_table(Table(TableSchema(name, [Column(c, "int", nullable=True) for c in columns])))

    for kind, batch in steps:
        for name, rows in batch.items():
            if kind == "refill":
                db.table(name).clear()
            db.insert(name, rows)

        with large_output_factor(factor):
            extracted = {
                engine: GraphGen(db, extract_engine=engine, **options).extract_condensed(query)
                for engine in ("python", "sqlite", "pushdown")
            }
        reference_graph, reference = extracted["python"]
        for engine, (graph, report) in extracted.items():
            assert report.engine == engine and report.notes == [], (engine, report.notes)
            assert signature(graph) == signature(reference_graph), engine
            for name in REPORT_FIELDS:
                assert getattr(report, name) == getattr(reference, name), (engine, name)

        # the mirror followed every step above; a fresh one loads it all now
        followed = db.sqlite_backend()
        with SQLiteBackend(db) as fresh:
            for name, columns in ENGINE_TABLES.items():
                ordered = f"SELECT * FROM {name} ORDER BY {', '.join(columns)}"
                assert followed.execute_sql(ordered) == fresh.execute_sql(ordered), name


def _partition(labels: dict) -> set[frozenset]:
    members: dict = {}
    for vertex, label in labels.items():
        members.setdefault(label, set()).add(vertex)
    return {frozenset(group) for group in members.values()}


#: the rule shapes whose plans read one atom per query once their joins are
#: cut: the ones a later extraction can extend
CHAIN_SHAPES = ("asymmetric", "filter-segment", "symmetric", "two-layer")
SYMMETRIC = "Nodes(ID) :- Node(ID). " + ENGINE_RULES["symmetric"][0]
#: a row skipped for id 2, then a Nodes row for 2: the delta cannot re-wire it
NODE_AFTER_A_SKIP = (
    SYMMETRIC,
    CONDENSE_ALL,
    {"skip_unknown_endpoints": True, "preprocess": True},
    2,
    [("append", {"R": [(0, 1), (2, 1), (1, 1)]}), ("append", {"Node": [(2,)]})],
)
#: (2, 1) joins key 1: 0 and 1 reach the new row through its virtual node
ROW_ON_A_KEPT_KEY = (
    SYMMETRIC,
    CONDENSE_ALL,
    {"skip_unknown_endpoints": True, "preprocess": False},
    3,
    [("append", {"R": [(0, 1), (1, 1)]}), ("append", {"R": [(2, 1)]})],
)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(NODE_AFTER_A_SKIP, "python")
@example(ROW_ON_A_KEPT_KEY, "pushdown")
@given(
    st.one_of(
        growing_tables(shapes=CHAIN_SHAPES, factors=(CONDENSE_ALL,), appends=st.integers(3, 5)),
        growing_tables(),
    ),
    st.sampled_from(["python", "pushdown"]),
)
def test_property_an_extended_extraction_equals_a_cold_one(case, engine):
    """After every step, a new session's C-DUP graph — the last one extended
    by the appended rows wherever the memo allows, cold elsewhere — is the
    cold python extraction of the tables: vertices, neighbour sets, node
    properties, degree and components on both backends.  Its snapshot,
    spliced whenever the memo extended a graph whose snapshot was built, is
    element-wise the full build of the graph it came with.  Mostly chains
    that can be extended; the rest of the shapes as well."""
    query, factor, options, num_nodes, steps = case
    db = Database("prop_extend")
    db.create_table("Node", [("id", "int")])
    db.insert("Node", [(i,) for i in range(num_nodes)])
    for name, columns in ENGINE_TABLES.items():
        db.add_table(Table(TableSchema(name, [Column(c, "int", nullable=True) for c in columns])))

    for kind, batch in steps:
        for name, rows in batch.items():
            if kind == "refill":
                db.table(name).clear()
            db.insert(name, rows)

        with large_output_factor(factor):
            handle = GraphSession(db, extract_engine=engine, **options).graph(query)
            csr = handle.snapshot()
            cold, _ = GraphGen(db, extract_engine="python", **options).extract_condensed(query)
        graph, reference = handle.graph, CDupGraph(cold)
        assert csr.content_hash == CSRGraph.from_graph(graph).content_hash
        report, condensed = handle.extraction.report, handle.extraction.condensed
        assert (report.real_nodes, report.virtual_nodes, report.condensed_edges) == (
            condensed.num_real_nodes,
            condensed.num_virtual_nodes,
            condensed.num_condensed_edges,
        )
        vertices = set(reference.get_vertices())
        assert set(graph.get_vertices()) == vertices
        for vertex in vertices:
            assert set(graph.get_neighbors(vertex)) == set(reference.get_neighbors(vertex)), vertex
        assert signature(handle.extraction.condensed)[0] == signature(cold)[0]
        expected = CSRGraph.from_graph(reference)
        kernels = {name: PLAN_ALGORITHMS[name].kernel for name in ("degree", "components")}
        for backend in MAINTAINER_BACKENDS:
            ours = {name: run(csr, get_backend(backend), {}) for name, run in kernels.items()}
            theirs = {name: run(expected, get_backend(backend), {}) for name, run in kernels.items()}
            assert ours["degree"] == theirs["degree"], backend
            assert _partition(ours["components"]) == _partition(theirs["components"]), backend


# --------------------------------------------------------------------------- #
# the one loader against the full join
# --------------------------------------------------------------------------- #
def _full_join(*atoms: tuple[str, str, str], comparisons=()) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        ["A", "B"], [QueryAtom(table, (x, y)) for table, x, y in atoms], list(comparisons)
    )


#: rule shape -> (extraction query, its Edges rule as one conjunctive query)
ORACLE_RULES = {
    "coauthor": (
        "Nodes(ID) :- Node(ID). Edges(A, B) :- R(A, P), R(B, P).",
        _full_join(("R", "A", "P"), ("R", "B", "P")),
    ),
    # RECENT_COAUTHOR's shape: the middle segment projects P -> P
    "filter-segment": (
        "Nodes(ID) :- Node(ID). Edges(A, B) :- R(A, P), R(B, P), S(P, Y), Y >= 1.",
        _full_join(
            ("R", "A", "P"), ("R", "B", "P"), ("S", "P", "Y"),
            comparisons=[Comparison("Y", ">=", 1)],
        ),
    ),
    "bipartite": (
        "Nodes(ID) :- Node(ID). Nodes(ID) :- Inst(ID). Edges(A, B) :- T(A, P), R(B, P).",
        _full_join(("T", "A", "P"), ("R", "B", "P")),
    ),
}
ORACLE_TABLES = {"Node": ("id",), "Inst": ("id",), "R": ("a", "p"), "S": ("p", "y"), "T": ("b", "p")}


@st.composite
def oracle_tables(draw):
    """A rule shape, a condense-all or condense-none plan, options, and
    small tables with duplicate rows and ids that no Nodes row produces.

    ``NULL`` join values only come with the condense-all plan, where every
    join that matches anything is a chain boundary the loader joins on
    Python equality (as the brute force does); inside one query SQL's ``=``
    never matches ``NULL`` and the python evaluator does.  ``S.y`` is only
    compared, so it is ``NULL`` under either plan."""
    shape = draw(st.sampled_from(sorted(ORACLE_RULES)))
    factor = draw(st.sampled_from([CONDENSE_ALL, CONDENSE_NONE]))
    options = {
        "skip_unknown_endpoints": draw(st.booleans()),
        "preprocess": draw(st.booleans()),
    }
    # Nodes produce 0-3 and 10-13; 4, 5, 14 and 15 dangle
    person, instructor = st.integers(0, 5), st.integers(10, 15)
    join = st.integers(0, 2) | st.none() if factor == CONDENSE_ALL else st.integers(0, 2)
    rows = {
        "Node": st.lists(st.tuples(st.integers(0, 3)), max_size=6),
        "Inst": st.lists(st.tuples(st.integers(10, 13)), max_size=4),
        "R": st.lists(st.tuples(person, join), max_size=10),
        "S": st.lists(st.tuples(join, st.integers(0, 2) | st.none()), max_size=6),
        "T": st.lists(st.tuples(instructor, join), max_size=6),
    }
    return shape, factor, options, draw(st.fixed_dictionaries(rows))


@settings(max_examples=60, deadline=None)
@given(oracle_tables())
def test_property_every_engine_extracts_the_full_join(case):
    shape, factor, options, tables = case
    query, full_join = ORACLE_RULES[shape]
    db = Database("prop_oracle")
    for name, columns in ORACLE_TABLES.items():
        db.add_table(Table(TableSchema(name, [Column(c, "int", nullable=True) for c in columns])))
        db.insert(name, tables[name])

    expected = evaluate_bruteforce(db, full_join)
    if options["skip_unknown_endpoints"]:
        known = {node for name in ("Node", "Inst") for (node,) in tables[name]}
        expected = {(a, b) for a, b in expected if a in known and b in known}
    with large_output_factor(factor):
        extracted = {
            engine: GraphGen(db, extract_engine=engine, **options).extract_condensed(query)
            for engine in ("python", "sqlite", "pushdown")
        }
    for engine, (graph, report) in extracted.items():
        assert report.engine == engine and report.notes == [], (engine, report.notes)
        assert set(graph.expanded_edges()) == expected, engine
    skipped = {engine: report.skipped_edge_tuples for engine, (_, report) in extracted.items()}
    assert len(set(skipped.values())) == 1, skipped


# --------------------------------------------------------------------------- #
# the planner's condense-vs-expand rule
# --------------------------------------------------------------------------- #
#: 2- and 3-atom chains over R, S (two nullable int columns each): self-joins
#: on one column, joins of two columns of one table, and of two tables
PLANNER_RULES = (
    "Edges(A, B) :- R(A, P), R(B, P).",
    "Edges(A, B) :- R(A, P), S(B, P).",
    "Edges(A, B) :- R(A, P), R(P, B).",
    "Edges(A, B) :- R(A, P), S(P, Q), R(B, Q).",
    "Edges(A, B) :- R(A, P), S(P, Q), S(B, Q).",
)


@st.composite
def planner_chains(draw):
    """A chain rule and the rows of R and S: skewed join values (a few hot
    keys make the exact size far from any uniform estimate), ``NULL``s,
    duplicates and empty tables."""
    value = st.integers(0, 2) | st.integers(0, 12) | st.none()
    rows = st.lists(st.tuples(value, value), max_size=24)
    return draw(st.sampled_from(PLANNER_RULES)), {"R": draw(rows), "S": draw(rows)}


def _join_rows(db: Database, decision) -> int:
    """Rows of the decision's equi-join, by nested loops over the tables."""
    left, right = db.table(decision.left_table), db.table(decision.right_table)
    i = left.schema.column_index(decision.left_column)
    j = right.schema.column_index(decision.right_column)
    return sum(1 for l in left.rows() for r in right.rows() if l[i] == r[j])


@settings(max_examples=80, deadline=None)
@given(planner_chains())
def test_property_planner_decides_on_the_exact_join_size(case):
    rule, tables = case
    db = Database("prop_planner")
    db.create_table("Node", [("id", "int")])
    for name, rows in tables.items():
        db.add_table(Table(TableSchema(name, [Column(c, "int", nullable=True) for c in ("x", "y")])))
        db.insert(name, rows)
    query = f"Nodes(ID) :- Node(ID). {rule}"

    with mock.patch.object(Database, "sqlite_backend", side_effect=AssertionError("mirror")):
        plans = {engine: GraphGen(db, extract_engine=engine).plan(query) for engine in EXTRACT_ENGINES}
    reference = plans["python"]
    (edge_plan,) = reference.edge_plans
    atoms = rule.count("(") - 1  # the head is the first parenthesis
    assert len(edge_plan.decisions) == atoms - 1
    for decision in edge_plan.decisions:
        rows = _join_rows(db, decision)
        inputs = decision.left_rows + decision.right_rows
        assert decision.estimated_output == rows
        assert decision.is_large_output == (rows > 2 * inputs)
    for engine, plan in plans.items():
        assert (plan.node_plans, plan.edge_plans) == (reference.node_plans, reference.edge_plans), engine
