"""Bit-identity tests for process-parallel supersteps.

The determinism contract (see ``repro.vertexcentric.parallel``): running the
vertex-centric framework or the Giraph engine with ``parallelism=N`` must
produce results **bit-identical** to ``parallelism=1`` — value maps
(including floating-point PageRank ranks and dangling-mass aggregator sums),
superstep counts, compute-call counts and message metrics.

The vertex-centric framework has one superstep loop, so "parallel == serial"
there only compares partition merges with each other; what pins the values
themselves is the property at the end of its section: every way of driving
the loop against references that live outside the engine (the
``repro.algorithms`` kernels and a textbook PageRank written here).

Coverage spans all five representations through the shared parity-family
helpers in ``tests/conftest.py`` (DEDUP-2 is included directly: serial and
parallel run on the *same* graph, so no self-loop projection is needed).
"""

import os
import pickle
import tempfile
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import bfs_distances, connected_components, degrees
from repro.exceptions import VertexCentricError
from repro.giraph.runner import run_giraph
from repro.graph import ExpandedGraph
from repro.vertexcentric import Executor, VertexCentric, partition_range
from repro.vertexcentric.programs import (
    PageRankProgram,
    run_connected_components,
    run_degree,
    run_label_propagation,
    run_pagerank,
    run_sssp,
)

from tests.conftest import build_parity_family

PARALLELISMS = (2, 4)


@pytest.fixture(scope="module")
def families():
    """kind -> {representation -> graph}; all five representations covered."""
    return {
        "symmetric": build_parity_family(
            "symmetric", seed=31, num_real=40, num_virtual=14, max_size=7, include_dedup2=True
        ),
        "directed": build_parity_family(
            "directed", seed=31, num_real=40, num_virtual=14, max_size=7
        ),
    }


def _flatten(families):
    return [
        (kind, name)
        for kind, family in (
            ("symmetric", ("EXP", "C-DUP", "DEDUP-1", "DEDUP-2", "BITMAP")),
            ("directed", ("EXP", "C-DUP", "DEDUP-1", "BITMAP")),
        )
        for name in family
    ]


def _assert_stats_match(parallel, serial):
    assert parallel.supersteps == serial.supersteps
    assert parallel.compute_calls == serial.compute_calls
    assert parallel.per_superstep_active == serial.per_superstep_active
    assert parallel.halted_early == serial.halted_early


# --------------------------------------------------------------------------- #
# vertex-centric framework
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind,name", _flatten(None))
class TestVertexCentricParity:
    def test_pagerank_bit_identical(self, families, kind, name):
        graph = families[kind][name]
        serial, serial_stats = run_pagerank(graph, iterations=20)
        for parallelism in PARALLELISMS:
            parallel, stats = run_pagerank(graph, iterations=20, parallelism=parallelism)
            assert parallel == serial, f"{kind}/{name} x{parallelism}: ranks differ"
            _assert_stats_match(stats, serial_stats)

    def test_bfs_bit_identical(self, families, kind, name):
        graph = families[kind][name]
        source = sorted(graph.get_vertices(), key=repr)[0]
        serial, serial_stats = run_sssp(graph, source)
        for parallelism in PARALLELISMS:
            parallel, stats = run_sssp(graph, source, parallelism=parallelism)
            assert parallel == serial, f"{kind}/{name} x{parallelism}: distances differ"
            _assert_stats_match(stats, serial_stats)

    def test_connected_components_bit_identical(self, families, kind, name):
        graph = families[kind][name]
        serial, serial_stats = run_connected_components(graph)
        for parallelism in PARALLELISMS:
            parallel, stats = run_connected_components(graph, parallelism=parallelism)
            assert parallel == serial, f"{kind}/{name} x{parallelism}: labels differ"
            _assert_stats_match(stats, serial_stats)


class TestDanglingMassAggregator:
    """PageRank's dangling-mass correction exercises the ordered aggregator
    merge: contributions must be summed in exactly the serial vertex order."""

    @pytest.fixture(scope="class")
    def dangling_graph(self):
        # symmetric core (the program gathers from out-neighbors, which is
        # exact on symmetric graphs) plus isolated vertices 18..21 — their
        # out-degree is 0, so they redistribute rank through the aggregator
        edges = [(u, v) for u in range(18) for v in range(18) if u != v and (u * v) % 5 == 0]
        edges += [(v, u) for u, v in edges]
        return ExpandedGraph.from_edges(edges, vertices=list(range(22)))

    def test_dangling_mass_bit_identical(self, dangling_graph):
        serial, _ = run_pagerank(dangling_graph, iterations=30)
        assert abs(sum(serial.values()) - 1.0) < 1e-9  # mass is conserved
        for parallelism in PARALLELISMS:
            parallel, _ = run_pagerank(dangling_graph, iterations=30, parallelism=parallelism)
            assert parallel == serial

    def test_label_propagation_bit_identical(self, dangling_graph):
        serial, _ = run_label_propagation(dangling_graph)
        parallel, _ = run_label_propagation(dangling_graph, parallelism=3)
        assert parallel == serial


class TestVertexCentricEdgeCases:
    def test_parallelism_larger_than_graph(self):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 1)])
        serial, _ = run_pagerank(graph, iterations=5)
        parallel, _ = run_pagerank(graph, iterations=5, parallelism=4)
        assert parallel == serial

    def test_empty_graph_falls_back_to_serial(self):
        coordinator = VertexCentric(ExpandedGraph(), parallelism=4)
        stats = coordinator.run(PageRankProgram(iterations=3))
        assert stats.supersteps == 0

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(VertexCentricError):
            VertexCentric(ExpandedGraph.from_edges([(1, 2)]), parallelism=0)

    def test_standalone_pool_inherits_an_unpicklable_executor(self):
        """A standalone run's executor reaches its workers through the fork,
        never through a pickle: a class defined inside a function (which
        pickle refuses) runs at ``parallelism=2``."""
        offset = 7

        class Local(Executor):
            def compute(self, ctx):
                ctx.set_value(ctx.degree() + offset)
                ctx.vote_to_halt()

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(Local())
        graph = ExpandedGraph.from_edges([(1, 2), (2, 1), (2, 3), (3, 2)])
        coordinator = VertexCentric(graph, parallelism=2)
        stats = coordinator.run(Local(), max_supersteps=3)
        assert coordinator.values() == {1: 8, 2: 9, 3: 8}
        assert stats.chunk_count == 2 and stats.halted_early

    def test_compute_error_propagates(self):
        class Exploding(Executor):
            def compute(self, ctx):
                if ctx.superstep == 1:
                    raise ValueError("boom at superstep 1")
                ctx.set_value(0.0)

        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        coordinator = VertexCentric(graph, parallelism=2)
        with pytest.raises(VertexCentricError, match="boom at superstep 1"):
            coordinator.run(Exploding(), max_supersteps=5)

    @pytest.fixture
    def snapshot_tempfiles(self, tmp_path, monkeypatch):
        """Send a run's tempfiles to ``tmp_path``; the list of paths made."""
        made = []
        mkstemp = tempfile.mkstemp

        def recording_mkstemp(*args, **kwargs):
            handle, path = mkstemp(*args, **kwargs)
            made.append(path)
            return handle, path

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
        return made

    def test_forked_run_removes_its_snapshot_tempfile(self, tmp_path, snapshot_tempfiles):
        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        serial, _ = run_pagerank(graph, iterations=5)
        assert snapshot_tempfiles == []  # an in-process run writes no snapshot
        parallel, _ = run_pagerank(graph, iterations=5, parallelism=2)
        assert parallel == serial
        [path] = snapshot_tempfiles
        assert os.path.basename(path).startswith("ggsnapshot-")
        assert list(tmp_path.iterdir()) == []

    def test_failed_forked_run_removes_its_snapshot_tempfile(
        self, tmp_path, snapshot_tempfiles
    ):
        class Exploding(Executor):
            def compute(self, ctx):
                raise ValueError("boom")

        graph = ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        with pytest.raises(VertexCentricError, match="boom"):
            VertexCentric(graph, parallelism=2).run(Exploding(), max_supersteps=3)
        assert len(snapshot_tempfiles) == 1
        assert list(tmp_path.iterdir()) == []


def test_partition_range_properties():
    assert partition_range(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_range(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
    assert partition_range(0, 2) == [(0, 0), (0, 0)]
    for n, parts in [(1, 1), (7, 2), (100, 7), (5, 5)]:
        bounds = partition_range(n, parts)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert max(hi - lo for lo, hi in bounds) - min(hi - lo for lo, hi in bounds) <= 1
    with pytest.raises(VertexCentricError):
        partition_range(5, 0)


# --------------------------------------------------------------------------- #
# the engine's reference lives outside the engine
# --------------------------------------------------------------------------- #
@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    edges = {(u, v) for u, v in pairs if u != v}
    edges |= {(v, u) for u, v in edges}
    return ExpandedGraph.from_edges(sorted(edges), vertices=list(range(n)))


#: name -> ``run_*`` keywords, one entry per way of driving the loop
ENGINES = {
    "in-process": {},
    "forked-2": {"parallelism": 2},
    "forked-3": {"parallelism": 3},
}


def canonical_component_labels(labels: dict) -> dict:
    """Relabel a component partition with 0-based integers in
    first-appearance order.  ``run_connected_components`` returns values in
    snapshot vertex order, so on symmetric graphs this reproduces the serial
    kernel's numbering exactly."""
    canonical: dict[Any, int] = {}
    return {vertex: canonical.setdefault(label, len(canonical)) for vertex, label in labels.items()}


def textbook_pagerank(graph, iterations, damping=0.85):
    """Synchronous PageRank with uniform dangling redistribution, written
    against the Graph API alone (its neighbor order is the summation order)."""
    vertices = list(graph.get_vertices())
    n = len(vertices)
    adjacency = {v: list(graph.get_neighbors(v)) for v in vertices}
    rank = {v: 1.0 / n for v in vertices}
    for _ in range(iterations):
        share = {v: rank[v] / len(adjacency[v]) if adjacency[v] else 0.0 for v in vertices}
        dangling = 0.0
        for v in vertices:
            if not adjacency[v]:
                dangling += rank[v]
        updated = {}
        for v in vertices:
            total = 0.0
            for u in adjacency[v]:
                total += share[u]
            updated[v] = (1.0 - damping) / n + damping * (total + dangling / n)
        rank = updated
    return rank


@settings(max_examples=25, deadline=None)
@given(symmetric_graphs())
def test_every_engine_equals_the_independent_references(graph):
    source = 0
    programs = {
        "degree": lambda **engine: run_degree(graph, backend="python", **engine),
        "pagerank": lambda **engine: run_pagerank(graph, iterations=6, backend="python", **engine),
        "components": lambda **engine: run_connected_components(graph, backend="python", **engine),
        "sssp": lambda **engine: run_sssp(graph, source, backend="python", **engine),
        "label_propagation": lambda **engine: run_label_propagation(
            graph, backend="python", **engine
        ),
    }
    outcomes = {
        program: {name: run(**keywords) for name, keywords in ENGINES.items()}
        for program, run in programs.items()
    }
    for program, by_engine in outcomes.items():
        values, stats = by_engine["in-process"]
        for name, (other_values, other_stats) in by_engine.items():
            assert other_values == values, f"{program} on {name}"
            _assert_stats_match(other_stats, stats)
    # ... and the in-process values are the ones an engine-free computation gives
    assert outcomes["degree"]["in-process"][0] == degrees(graph)
    assert outcomes["pagerank"]["in-process"][0] == textbook_pagerank(graph, iterations=6)
    labels = canonical_component_labels(outcomes["components"]["in-process"][0])
    assert labels == connected_components(graph)
    distances = outcomes["sssp"]["in-process"][0]
    assert {v: d for v, d in distances.items() if d is not None} == bfs_distances(graph, source)


# --------------------------------------------------------------------------- #
# Giraph engine
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind,name", _flatten(None))
class TestGiraphParity:
    @pytest.mark.parametrize("algorithm", ["pagerank", "connected_components", "degree"])
    def test_bit_identical(self, families, kind, name, algorithm):
        graph = families[kind][name]
        serial = run_giraph(graph, algorithm, iterations=8)
        parallel = run_giraph(graph, algorithm, iterations=8, parallelism=2)
        assert parallel.values == serial.values, f"{kind}/{name}/{algorithm}"
        assert parallel.metrics.supersteps == serial.metrics.supersteps
        assert parallel.metrics.compute_calls == serial.metrics.compute_calls
        assert parallel.metrics.total_messages == serial.metrics.total_messages
        assert (
            parallel.metrics.messages_per_superstep == serial.metrics.messages_per_superstep
        )
        assert (
            parallel.metrics.peak_message_buffer == serial.metrics.peak_message_buffer
        )


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["pagerank", "connected_components", "degree"])
def test_giraph_four_workers_stress(families, algorithm):
    """4-way parallel Giraph across every representation (slow)."""
    for kind, family in families.items():
        for name, graph in family.items():
            serial = run_giraph(graph, algorithm, iterations=8)
            parallel = run_giraph(graph, algorithm, iterations=8, parallelism=4)
            assert parallel.values == serial.values, f"{kind}/{name}/{algorithm} x4"
            assert parallel.metrics.total_messages == serial.metrics.total_messages


@pytest.mark.slow
def test_pagerank_eight_workers_on_larger_graph():
    """Many more workers than cores; still bit-identical (slow)."""
    from repro.datasets.synthetic import generate_condensed
    from repro.dedup.expand import expand

    graph = expand(
        generate_condensed(num_real=150, num_virtual=120, mean_size=5, std_size=2, seed=3)
    )
    serial, _ = run_pagerank(graph, iterations=15)
    parallel, _ = run_pagerank(graph, iterations=15, parallelism=8)
    assert parallel == serial


# --------------------------------------------------------------------------- #
# Giraph message batching (numeric pipe-traffic packing)
# --------------------------------------------------------------------------- #
class TestMessageBatching:
    """Numeric supersteps cross the worker pipes as flat typed buffers — and,
    while the target sequence repeats, as value buffers alone; mixed
    supersteps fall back to raw pair lists.  Either way the round-trip must
    be lossless and order-preserving — the Giraph parity tests above assert
    the resulting end-to-end bit-identity."""

    def test_float_messages_pack_to_typed_buffers(self):
        from array import array

        from repro.vertexcentric.parallel import MessageChannel

        sender, receiver = MessageChannel(), MessageChannel()
        pairs = [(3, 0.1), (1, 0.25), (3, 1.0 / 3.0), (0, 5e-324), (2, -0.0)]
        packed = sender.pack(pairs)
        assert packed[0] == "f64"
        assert isinstance(packed[1], array) and packed[1].typecode == "i"
        assert isinstance(packed[2], array) and packed[2].typecode == "d"
        roundtrip = receiver.unpack(packed)
        assert roundtrip == pairs  # exact values, exact order
        assert all(type(m) is float for _, m in roundtrip)

    def test_repeated_targets_ship_values_only(self):
        from repro.vertexcentric.parallel import MessageChannel

        sender, receiver = MessageChannel(), MessageChannel()
        first = [(7, 0.5), (2, 0.25), (7, 0.125)]
        second = [(7, 1.5), (2, -2.25), (7, 0.75)]  # same targets, new values
        assert receiver.unpack(sender.pack(first)) == first
        packed = sender.pack(second)
        assert packed[0] == "f64-repeat"  # the target buffer is not resent
        assert receiver.unpack(packed) == second
        # a different target sequence falls back to a full packet
        third = [(2, 1.0), (7, 2.0)]
        packed = sender.pack(third)
        assert packed[0] == "f64"
        assert receiver.unpack(packed) == third

    def test_mixed_and_non_numeric_messages_stay_raw(self):
        from repro.vertexcentric.parallel import MessageChannel

        sender, receiver = MessageChannel(), MessageChannel()
        for pairs in (
            [(0, 0.5), (1, ("v", 0.25))],  # mixed float / tuple
            [(0, ("q", 7)), (1, ("r", 2))],  # tuples only
            [(0, 1)],  # ints must not be coerced to float
            [],
        ):
            packed = sender.pack(pairs)
            assert packed[0] == "raw"
            assert receiver.unpack(packed) == pairs

    def test_packed_payload_is_smaller_on_the_wire(self):
        import pickle

        from repro.vertexcentric.parallel import MessageChannel

        sender = MessageChannel()
        pairs = [(index % 97, index * 0.125) for index in range(2000)]
        raw_size = len(pickle.dumps(("raw", pairs)))
        first_size = len(pickle.dumps(sender.pack(pairs)))
        assert first_size < raw_size
        # steady state (the scatter topology repeats): values only
        repeat = [(index % 97, index * 0.5) for index in range(2000)]
        repeat_size = len(pickle.dumps(sender.pack(repeat)))
        assert repeat_size < raw_size / 1.5

    def test_serial_engine_batches_float_inboxes(self):
        """The serial engine stores all-float per-target boxes as array('d')
        and degrades to a list the moment a non-float arrives, preserving
        order."""
        from array import array

        from repro.giraph.engine import GiraphEngine, GiraphVertex

        engine = GiraphEngine({vid: GiraphVertex(vid) for vid in ("a", "b")})
        engine.send("a", 0.5)
        engine.send("a", 0.25)
        box = engine._outbox[engine._index["a"]]
        assert isinstance(box, array) and box.typecode == "d"
        assert box.tolist() == [0.5, 0.25]
        engine.send("a", ("label", 1))
        box = engine._outbox[engine._index["a"]]
        assert isinstance(box, list)
        assert box == [0.5, 0.25, ("label", 1)]
        # non-float first -> list from the start
        engine.send("b", 7)
        assert isinstance(engine._outbox[engine._index["b"]], list)

    def test_compute_always_receives_a_plain_list(self):
        """Batched float boxes are unpacked at the delivery boundary: the
        GiraphProgram.compute API keeps receiving real lists it may mutate."""
        from repro.giraph.engine import GiraphEngine, GiraphProgram, GiraphVertex

        seen = []

        class Probe(GiraphProgram):
            max_supersteps = 3

            def compute(self, vertex, messages, ctx):
                assert type(messages) is list
                if messages:
                    messages.sort()  # list semantics must keep working
                    seen.append(list(messages))
                if ctx.superstep == 0 and vertex.vertex_id == "a":
                    ctx.send("b", 0.75)
                    ctx.send("b", 0.25)
                ctx.vote_to_halt(vertex.vertex_id)

        engine = GiraphEngine({vid: GiraphVertex(vid) for vid in ("a", "b")})
        engine.run(Probe())
        assert seen == [[0.25, 0.75]]

    def test_giraph_expanded_pagerank_parallel_bit_identical(self, families):
        """Expanded PageRank is the all-float workload the packing targets:
        every superstep's pipe traffic takes the packed path, and the values
        and message metrics must remain bit-identical to serial."""
        graph = families["symmetric"]["EXP"]
        serial = run_giraph(graph, "pagerank", iterations=12)
        for parallelism in PARALLELISMS:
            parallel = run_giraph(graph, "pagerank", iterations=12, parallelism=parallelism)
            assert parallel.values == serial.values
            assert parallel.metrics.total_messages == serial.metrics.total_messages
            assert (
                parallel.metrics.messages_per_superstep
                == serial.metrics.messages_per_superstep
            )
