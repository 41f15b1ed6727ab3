"""Table 6 — join selectivities of the synthetic datasets.

The paper characterises its large synthetic datasets (Layered_1/2, Single_1/2
and the Giraph datasets S1/S2/N1/N2) by the join selectivities used to
generate them, where the selectivity of attribute ``a`` of table ``A`` is
``distinct(a) / |A|``.  This benchmark regenerates each dataset, measures the
selectivities from the data (not from the generator parameters), and reports
the C-DUP node / edge counts alongside them — the same columns as Table 6.

Shape assertions:

* the measured selectivity is within a small tolerance of the generator's
  target selectivity (the generators control the data correctly);
* lower selectivity produces more duplication pressure: Single_2
  (selectivity 0.01) has a larger expansion ratio than Single_1 (0.25).
"""

from __future__ import annotations

import pytest

from repro.core import GraphGen
from repro.datasets import (
    GIRAPH_SPECS,
    LAYERED_QUERY,
    LAYERED_SPECS,
    SINGLE_QUERY,
    SINGLE_SPECS,
    generate_giraph_dataset,
    generate_layered,
    generate_single,
    measured_selectivity,
)

from benchmarks.conftest import once, record_rows

_ROWS: list[dict[str, object]] = []
_EXPANSION: dict[str, float] = {}


def _condensed_counts(db, query) -> tuple[int, int, int]:
    """(nodes, condensed edges, expanded edges) of the extracted C-DUP graph."""
    gg = GraphGen(db, preprocess=False)
    condensed, report = gg.extract_condensed(query)
    return (
        condensed.num_nodes,
        report.condensed_edges,
        condensed.expanded_edge_count(),
    )


# --------------------------------------------------------------------------- #
# relational datasets: Layered_* and Single_*
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(LAYERED_SPECS))
def test_layered_selectivity(benchmark, name):
    spec = LAYERED_SPECS[name]
    db = once(benchmark, generate_layered, spec)
    outer = measured_selectivity(db, "A", "k")
    inner = measured_selectivity(db, "B", "p")
    nodes, condensed_edges, expanded_edges = _condensed_counts(db, LAYERED_QUERY)
    _ROWS.append(
        {
            "dataset": spec.name,
            "join_selectivities": f"{outer:.3f} -> {inner:.3f} -> {outer:.3f}",
            "target": f"{spec.selectivity_outer} -> {spec.selectivity_inner} -> {spec.selectivity_outer}",
            "cdup_nodes": nodes,
            "cdup_edges": condensed_edges,
            "expanded_edges": expanded_edges,
        }
    )
    assert outer == pytest.approx(spec.selectivity_outer, rel=0.25)
    assert inner == pytest.approx(spec.selectivity_inner, rel=0.25)


@pytest.mark.parametrize("name", sorted(SINGLE_SPECS))
def test_single_selectivity(benchmark, name):
    spec = SINGLE_SPECS[name]
    db = once(benchmark, generate_single, spec)
    selectivity = measured_selectivity(db, "R", "p")
    nodes, condensed_edges, expanded_edges = _condensed_counts(db, SINGLE_QUERY)
    _ROWS.append(
        {
            "dataset": spec.name,
            "join_selectivities": f"{selectivity:.4f}",
            "target": f"{spec.selectivity}",
            "cdup_nodes": nodes,
            "cdup_edges": condensed_edges,
            "expanded_edges": expanded_edges,
        }
    )
    _EXPANSION[spec.name] = expanded_edges / max(1, condensed_edges)
    assert selectivity == pytest.approx(spec.selectivity, rel=0.25)


# --------------------------------------------------------------------------- #
# condensed datasets: the Giraph S / N series
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GIRAPH_SPECS))
def test_giraph_dataset_shape(benchmark, name):
    condensed = once(benchmark, generate_giraph_dataset, name)
    spec = GIRAPH_SPECS[name]
    # implied selectivity of the membership relation: one distinct virtual
    # node value per (mean_size) membership rows
    memberships = condensed.num_condensed_edges // 2 or 1
    implied = condensed.num_virtual_nodes / memberships
    _ROWS.append(
        {
            "dataset": name,
            "join_selectivities": f"{implied:.5f}",
            "target": f"~{spec.num_virtual / (spec.num_virtual * spec.mean_size):.5f}",
            "cdup_nodes": condensed.num_nodes,
            "cdup_edges": condensed.num_condensed_edges,
            "expanded_edges": condensed.expanded_edge_count(),
        }
    )
    assert condensed.num_real_nodes == spec.num_real
    assert condensed.num_virtual_nodes <= spec.num_virtual


# --------------------------------------------------------------------------- #
# summary / shape checks
# --------------------------------------------------------------------------- #
def test_table6_summary(benchmark):
    def collect():
        return {str(row["dataset"]): row for row in _ROWS}

    by_dataset = once(benchmark, collect)
    record_rows("table6_selectivity", "Table 6: dataset join selectivities", _ROWS)
    assert set(LAYERED_SPECS) | set(SINGLE_SPECS) <= set(by_dataset)
    # lower selectivity (bigger shared join values) => larger expansion ratio
    if "single_1" in _EXPANSION and "single_2" in _EXPANSION:
        assert _EXPANSION["single_2"] > _EXPANSION["single_1"], (
            "the low-selectivity dataset must show the larger space explosion"
        )
