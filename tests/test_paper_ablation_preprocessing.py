"""Ablation — Step-6 preprocessing and the large-output-join threshold.

DESIGN.md calls out two design choices of the extraction pipeline for
ablation (Step 6 is :class:`repro.core.config.ExtractionOptions`'
``preprocess``; the factor is :data:`repro.relational.catalog.LARGE_OUTPUT_FACTOR`,
patched for the sweep):

* **Step 6 preprocessing** (Section 4.2): expand every virtual node ``V``
  with ``in(V) * out(V) <= in(V) + out(V) + 1``.  The ablation extracts each
  small dataset with preprocessing on and off and compares the stored edge
  and virtual-node counts — preprocessing must never increase the number of
  stored edges.
* **Threshold factor** (the constant ``2`` in the large-output-join test
  ``|Ri ⋈ Rj| > factor * (|Ri|+|Rj|)``): sweeping the factor moves joins
  between the "hand to the database" and "virtual layer" buckets.  A very
  large factor degenerates to the fully expanded extraction (no virtual
  nodes); a very small factor keeps every join condensed.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import GraphGen

from tests.conftest import SMALL_DATASETS, large_output_factor

THRESHOLD_FACTORS = (0.01, 0.5, 2.0, 10.0, 1e9)


@pytest.fixture(scope="module")
def extract(small_datasets):
    """``extract(dataset, preprocess, factor) -> (condensed, report)``, each
    extraction run once per module."""

    @functools.cache
    def run(dataset: str, preprocess: bool, factor: float):
        db, query = small_datasets[dataset]
        with large_output_factor(factor):
            return GraphGen(db, preprocess=preprocess).extract_condensed(query)

    return run


# --------------------------------------------------------------------------- #
# ablation 1: Step-6 preprocessing on/off
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", SMALL_DATASETS)
@pytest.mark.parametrize("preprocess", (False, True), ids=("step6-off", "step6-on"))
def test_step6_preprocessing(extract, dataset, preprocess):
    condensed, _ = extract(dataset, preprocess, 2.0)
    assert condensed.num_real_nodes > 0


# --------------------------------------------------------------------------- #
# ablation 2: large-output-join threshold factor sweep
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_threshold_factor_sweep(extract, factor):
    condensed, _ = extract("TPCH", False, factor)
    reference, _ = extract("TPCH", False, THRESHOLD_FACTORS[0])
    # regardless of the factor, the logical graph must be identical
    assert condensed.expanded_edge_count() == reference.expanded_edge_count()


# --------------------------------------------------------------------------- #
# summary / shape checks
# --------------------------------------------------------------------------- #
def test_ablation_summary(extract):
    # Step 6 only expands virtual nodes whose expansion is not larger, so it
    # can never increase the number of stored edges.
    for dataset in SMALL_DATASETS:
        off = extract(dataset, False, 2.0)[1].condensed_edges
        on = extract(dataset, True, 2.0)[1].condensed_edges
        assert on <= off + 1, (
            f"{dataset}: Step-6 preprocessing increased the stored edge count"
        )

    # A huge threshold factor means no join is classified large-output, so no
    # virtual nodes are created (the extraction degenerates to EXP).
    assert extract("TPCH", False, 1e9)[1].virtual_nodes == 0
    # A tiny factor marks every join large-output, so virtual nodes appear.
    assert extract("TPCH", False, 0.01)[1].virtual_nodes > 0
