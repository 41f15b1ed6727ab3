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

import pytest

from repro.core import GraphGen

from benchmarks.conftest import SMALL_DATASETS, once, record_rows
from tests.conftest import large_output_factor

_STEP6_ROWS: list[dict[str, object]] = []
_THRESHOLD_ROWS: list[dict[str, object]] = []

THRESHOLD_FACTORS = (0.01, 0.5, 2.0, 10.0, 1e9)


def _extract_condensed(db, query, preprocess: bool, threshold_factor: float = 2.0):
    with large_output_factor(threshold_factor):
        return GraphGen(db, preprocess=preprocess).extract_condensed(query)


# --------------------------------------------------------------------------- #
# ablation 1: Step-6 preprocessing on/off
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dataset", list(SMALL_DATASETS))
@pytest.mark.parametrize("preprocess", (False, True), ids=("step6-off", "step6-on"))
def test_step6_preprocessing(benchmark, small_datasets, dataset, preprocess):
    db, query = small_datasets[dataset]
    condensed, report = once(benchmark, _extract_condensed, db, query, preprocess)
    _STEP6_ROWS.append(
        {
            "dataset": dataset,
            "step6": "on" if preprocess else "off",
            "virtual_nodes": report.virtual_nodes,
            "condensed_edges": report.condensed_edges,
            "expanded_virtual_nodes": report.preprocessing_expanded_virtual_nodes,
            "seconds": round(report.seconds, 4),
        }
    )
    assert condensed.num_real_nodes > 0


# --------------------------------------------------------------------------- #
# ablation 2: large-output-join threshold factor sweep
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("factor", THRESHOLD_FACTORS)
def test_threshold_factor_sweep(benchmark, small_datasets, factor):
    db, query = small_datasets["TPCH"]
    condensed, report = once(
        benchmark, _extract_condensed, db, query, False, factor
    )
    _THRESHOLD_ROWS.append(
        {
            "dataset": "TPCH",
            "threshold_factor": factor,
            "virtual_nodes": report.virtual_nodes,
            "condensed_edges": report.condensed_edges,
            "expanded_edges": condensed.expanded_edge_count(),
            "seconds": round(report.seconds, 4),
        }
    )
    # regardless of the factor, the logical graph must be identical
    assert condensed.expanded_edge_count() == _THRESHOLD_ROWS[0]["expanded_edges"]


# --------------------------------------------------------------------------- #
# summary / shape checks
# --------------------------------------------------------------------------- #
def test_ablation_summary(benchmark):
    def collect():
        step6: dict[str, dict[str, int]] = {}
        for row in _STEP6_ROWS:
            step6.setdefault(str(row["dataset"]), {})[str(row["step6"])] = int(
                row["condensed_edges"]
            )
        return step6

    step6 = once(benchmark, collect)
    record_rows("ablation_preprocessing", "Ablation: Step-6 preprocessing", _STEP6_ROWS)
    record_rows(
        "ablation_preprocessing", "Ablation: threshold-factor sweep (TPCH)", _THRESHOLD_ROWS
    )

    # Step 6 only expands virtual nodes whose expansion is not larger, so it
    # can never increase the number of stored edges.
    for dataset, counts in step6.items():
        if {"on", "off"} <= set(counts):
            assert counts["on"] <= counts["off"] + 1, (
                f"{dataset}: Step-6 preprocessing increased the stored edge count"
            )

    # A huge threshold factor means no join is classified large-output, so no
    # virtual nodes are created (the extraction degenerates to EXP).
    by_factor = {float(row["threshold_factor"]): row for row in _THRESHOLD_ROWS}
    if 1e9 in by_factor:
        assert int(by_factor[1e9]["virtual_nodes"]) == 0
    # A tiny factor marks every join large-output, so virtual nodes appear.
    if 0.01 in by_factor:
        assert int(by_factor[0.01]["virtual_nodes"]) > 0
