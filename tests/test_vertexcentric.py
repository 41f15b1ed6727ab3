"""Tests for the vertex-centric framework and built-in programs."""

import pytest

from repro.algorithms import connected_components, degrees, pagerank
from repro.dedup import deduplicate_dedup1, preprocess_bitmap
from repro.exceptions import VertexCentricError
from repro.graph import CDupGraph, ExpandedGraph, expanded_from_condensed
from repro.vertexcentric import (
    ConnectedComponentsProgram,
    DegreeProgram,
    Executor,
    PageRankProgram,
    VertexCentric,
    run_connected_components,
    run_degree,
    run_pagerank,
)

from tests.conftest import build_symmetric_condensed


@pytest.fixture(scope="module")
def condensed():
    return build_symmetric_condensed(seed=21, num_real=50, num_virtual=18, max_size=6)


@pytest.fixture(scope="module")
def expanded(condensed):
    return expanded_from_condensed(condensed)


class TestFramework:
    def test_invalid_configuration(self, expanded):
        with pytest.raises(VertexCentricError):
            VertexCentric(expanded, parallelism=0)
        with pytest.raises(VertexCentricError):
            VertexCentric(expanded).run(object())  # type: ignore[arg-type]

    def test_superstep_limit(self, expanded):
        class Forever(Executor):
            def compute(self, ctx):
                ctx.set_value(ctx.superstep)

        coordinator = VertexCentric(expanded)
        stats = coordinator.run(Forever(), max_supersteps=5)
        assert stats.supersteps == 5
        assert not stats.halted_early

    def test_halting_stops_early(self, expanded):
        class OneShot(Executor):
            def compute(self, ctx):
                ctx.set_value("done")
                ctx.vote_to_halt()

        coordinator = VertexCentric(expanded)
        stats = coordinator.run(OneShot(), max_supersteps=50)
        assert stats.halted_early
        assert stats.supersteps == 1
        assert all(value == "done" for value in coordinator.values().values())

    def test_values_are_double_buffered(self, expanded):
        class ReadNeighbor(Executor):
            def compute(self, ctx):
                if ctx.superstep == 0:
                    ctx.set_value(1)
                else:
                    # reads must observe the *previous* superstep's values
                    total = sum(ctx.get_neighbor_value(n, default=0) for n in ctx.neighbors())
                    ctx.set_value(total)
                    ctx.vote_to_halt()

        coordinator = VertexCentric(expanded)
        coordinator.run(ReadNeighbor(), max_supersteps=2)
        for vertex in expanded.get_vertices():
            assert coordinator.value(vertex) == expanded.degree(vertex)

    def test_chunking_counts(self, expanded):
        """``chunk_count`` is the number of partitions driven: one per
        superstep in-process, ``parallelism`` per superstep on a pool."""

        class ThreeRounds(Executor):
            def compute(self, ctx):
                if ctx.superstep == 2:
                    ctx.vote_to_halt()

        for parallelism in (1, 3):
            coordinator = VertexCentric(expanded, parallelism=parallelism)
            stats = coordinator.run(ThreeRounds(), max_supersteps=10)
            assert stats.supersteps == 3
            assert stats.chunk_count == 3 * parallelism
            assert stats.compute_calls == 3 * expanded.num_vertices()


class TestPrograms:
    def test_degree_program_matches_direct(self, expanded):
        values, _ = run_degree(expanded)
        assert values == degrees(expanded)

    def test_degree_program_on_condensed_representations(self, condensed, expanded):
        for graph in (CDupGraph(condensed), deduplicate_dedup1(condensed), preprocess_bitmap(condensed)):
            values, _ = run_degree(graph)
            assert values == degrees(expanded)

    def test_pagerank_program_close_to_direct(self, expanded):
        values, stats = run_pagerank(expanded, iterations=40)
        reference = pagerank(expanded, max_iterations=200, tolerance=1e-12)
        assert stats.supersteps >= 40
        assert max(abs(values[v] - reference[v]) for v in reference) < 1e-3

    def test_pagerank_same_across_representations(self, condensed, expanded):
        base, _ = run_pagerank(expanded, iterations=15)
        for graph in (deduplicate_dedup1(condensed), preprocess_bitmap(condensed)):
            values, _ = run_pagerank(graph, iterations=15)
            assert max(abs(values[v] - base[v]) for v in base) < 1e-12

    def test_connected_components_matches_union_find(self, condensed, expanded):
        reference = connected_components(expanded)
        values, stats = run_connected_components(CDupGraph(condensed))
        assert stats.halted_early
        # same partition: two vertices share a label iff they share a component
        by_label: dict = {}
        for vertex, label in values.items():
            by_label.setdefault(label, set()).add(vertex)
        reference_groups = {}
        for vertex, label in reference.items():
            reference_groups.setdefault(label, set()).add(vertex)
        assert sorted(map(sorted, by_label.values())) == sorted(
            map(sorted, reference_groups.values())
        )

    def test_degree_precomputation_available_in_context(self, expanded):
        coordinator = VertexCentric(expanded)

        class UsesDegree(Executor):
            def compute(self, ctx):
                ctx.set_value(ctx.degree(), key="d")
                ctx.vote_to_halt()

        coordinator.run(UsesDegree(), max_supersteps=1)
        assert coordinator.values("d") == degrees(expanded)
