"""Table 6 — join selectivities of the synthetic datasets.

The paper characterises its large synthetic datasets (Layered_1/2, Single_1/2
and the Giraph datasets S1/S2/N1/N2) by the join selectivities used to
generate them, where the selectivity of attribute ``a`` of table ``A`` is
``distinct(a) / |A|``.  This module regenerates each dataset, measures the
selectivities from the data (not from the generator parameters), and counts
the C-DUP nodes / edges alongside them — the same columns as Table 6.

Shape assertions:

* the measured selectivity is within a small tolerance of the generator's
  target selectivity (the generators control the data correctly);
* lower selectivity produces more duplication pressure: Single_2
  (selectivity 0.01) has a larger expansion ratio than Single_1 (0.25).
"""

from __future__ import annotations

import functools

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

pytestmark = pytest.mark.slow


def _condensed_counts(db, query) -> tuple[int, int, int]:
    """(nodes, condensed edges, expanded edges) of the extracted C-DUP graph."""
    gg = GraphGen(db, preprocess=False)
    condensed, report = gg.extract_condensed(query)
    return (
        condensed.num_nodes,
        report.condensed_edges,
        condensed.expanded_edge_count(),
    )


@pytest.fixture(scope="module")
def single():
    """``single(name) -> (database, C-DUP counts)`` of a Single_* dataset,
    each generated and extracted once per module."""

    @functools.cache
    def build(name: str):
        db = generate_single(SINGLE_SPECS[name])
        return db, _condensed_counts(db, SINGLE_QUERY)

    return build


# --------------------------------------------------------------------------- #
# relational datasets: Layered_* and Single_*
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(LAYERED_SPECS))
def test_layered_selectivity(name):
    spec = LAYERED_SPECS[name]
    db = generate_layered(spec)
    outer = measured_selectivity(db, "A", "k")
    inner = measured_selectivity(db, "B", "p")
    nodes, condensed_edges, expanded_edges = _condensed_counts(db, LAYERED_QUERY)
    assert nodes > 0
    assert expanded_edges > condensed_edges > 0  # the layers duplicate
    assert outer == pytest.approx(spec.selectivity_outer, rel=0.25)
    assert inner == pytest.approx(spec.selectivity_inner, rel=0.25)


@pytest.mark.parametrize("name", sorted(SINGLE_SPECS))
def test_single_selectivity(single, name):
    spec = SINGLE_SPECS[name]
    db, _ = single(name)
    selectivity = measured_selectivity(db, "R", "p")
    assert selectivity == pytest.approx(spec.selectivity, rel=0.25)


# --------------------------------------------------------------------------- #
# condensed datasets: the Giraph S / N series
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GIRAPH_SPECS))
def test_giraph_dataset_shape(name):
    condensed = generate_giraph_dataset(name)
    spec = GIRAPH_SPECS[name]
    assert condensed.num_real_nodes == spec.num_real
    assert condensed.num_virtual_nodes <= spec.num_virtual


# --------------------------------------------------------------------------- #
# summary / shape checks
# --------------------------------------------------------------------------- #
def test_table6_summary(single):
    # lower selectivity (bigger shared join values) => larger expansion ratio
    expansion = {}
    for name in SINGLE_SPECS:
        _, (_, condensed_edges, expanded_edges) = single(name)
        expansion[name] = expanded_edges / max(1, condensed_edges)
    assert expansion["single_2"] > expansion["single_1"], (
        "the low-selectivity dataset must show the larger space explosion"
    )
