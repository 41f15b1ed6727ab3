PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-fast test-session test-service test-incremental test-dedup test-planner test-extract test-algorithms smoke serve-smoke all help

help:
	@echo "make test | all   - the whole suite (tests/, tier-1 equivalent), the"
	@echo "                    paper-figure pins (tests/test_paper_*) included"
	@echo "make test-fast    - same, minus slow-marked stress tests and heavy paper"
	@echo "                    tables, once per kernel backend (python + numpy leg)"
	@echo "make test-session - session layer: lifecycle, API-compat shims,"
	@echo "                    public-API stability, CLI, plan scheduling"
	@echo "make test-service - service layer: JSON codec, result cache, HTTP"
	@echo "                    front-end, session concurrency regressions,"
	@echo "                    the incremental write path (repair on read), fig18:"
	@echo "                    a cache hit executes no plan, responses bit-identical"
	@echo "make test-incremental - the maintainers: maintained == a cold recompute on"
	@echo "                    generated journal windows (both backends), BFS removal"
	@echo "                    repairs, the ring schedule's tally and work pins"
	@echo "make test-dedup   - DEDUP-1/BITMAP/DEDUP-2 suites, the identity goldens"
	@echo "                    (every algorithm x ordering, edge for edge), the"
	@echo "                    probe pins, maintained-mask property, fig12 shapes"
	@echo "make test-planner - the condense-vs-expand rule: catalog counts, exact join"
	@echo "                    sizes, decisions == brute force on generated chains,"
	@echo "                    one plan per engine, no statement to the mirror"
	@echo "make test-extract - the one extraction loader: pushdown parity matrix, row"
	@echo "                    engines, aggregates, sqlite mirror, every engine == the"
	@echo "                    brute-force full join, engines x appended rows, the"
	@echo "                    DEDUP-1 golden graph, Table 1 (condensed vs full +"
	@echo "                    pushdown work pins: one scan, distinct rows only)"
	@echo "make test-algorithms - one runner per algorithm: plan == runner == free"
	@echo "                    function on both backends (generated plans), the"
	@echo "                    free functions' checks, backend and representation"
	@echo "                    parity, the block-sweep digests, the API shims"
	@echo "make smoke        - seconds-fast sanity subset (kernel, parity, algorithms,"
	@echo "                    python-vs-numpy maintainer parity, block-sweep kernel,"
	@echo "                    hook-and-jump components + frontier-adaptive BFS,"
	@echo "                    extraction engines x appended rows, one plan DAG at"
	@echo "                    every parallelism + exact sweep/triangle slices)"
	@echo "make serve-smoke  - boot 'repro serve' + concurrent HTTP clients end-to-end"

test all:
	$(PYTEST) -q

test-fast:
	REPRO_KERNEL_BACKEND=python $(PYTEST) -q tests/ -m "not slow"
	REPRO_KERNEL_BACKEND=numpy $(PYTEST) -q tests/ -m "not slow"

test-session:
	$(PYTEST) -q tests/test_session.py tests/test_api_compat.py \
		tests/test_public_api.py tests/test_cli.py tests/test_plan_scheduling.py \
		tests/test_plan_compiler.py

test-incremental:
	$(PYTEST) -q tests/test_incremental.py \
		tests/test_property_invariants.py::test_property_maintained_results_equal_a_cold_recompute

test-dedup:
	$(PYTEST) -q tests/test_dedup_*.py \
		tests/test_property_invariants.py::test_property_dedup1_and_bitmap_preserve_graph \
		tests/test_paper_fig12_dedup.py

test-planner:
	$(PYTEST) -q tests/test_core_planner.py tests/test_relational_catalog.py \
		tests/test_property_invariants.py::test_property_planner_decides_on_the_exact_join_size \
		tests/test_sqlite_mirror.py::test_a_reused_graphgen_replans_after_a_table_grew

test-extract:
	$(PYTEST) -q tests/test_pushdown_extraction.py tests/test_core_extractor.py \
		tests/test_core_aggregate_extraction.py tests/test_sqlite_mirror.py \
		tests/test_property_invariants.py::test_property_every_engine_extracts_the_full_join \
		tests/test_property_invariants.py::test_property_engines_agree_while_tables_grow \
		tests/test_dedup_identity.py::test_dedup1_builds_the_recorded_graph \
		tests/test_paper_table1_extraction.py

test-algorithms:
	$(PYTEST) -q tests/test_algorithms*.py tests/test_backend_parity.py \
		tests/test_representation_parity.py tests/test_sweep_kernel.py \
		tests/test_api_compat.py \
		tests/test_property_invariants.py::test_property_plan_results_equal_their_kernel_runners

test-service:
	$(PYTEST) -q tests/test_service.py tests/test_service_http.py \
		tests/test_session_concurrency.py \
		tests/test_incremental.py::TestIncrementalService \
		tests/test_paper_fig18_service.py

smoke:
	$(PYTEST) -q tests/test_kernel.py tests/test_representation_parity.py \
		tests/test_algorithms.py tests/test_graph_representations.py \
		tests/test_incremental.py tests/test_sweep_kernel.py \
		tests/test_traversal_kernels.py \
		tests/test_property_invariants.py::test_property_engines_agree_while_tables_grow \
		tests/test_plan_compiler.py::test_property_one_dag_at_every_parallelism \
		tests/test_plan_compiler.py::test_ranged_triangle_vectors_add_up_under_every_split \
		tests/test_plan_compiler.py::test_strided_sweep_split_covers_each_source_once

serve-smoke:
	$(PYTEST) -q tests/test_service_http.py::TestServeCommand \
		tests/test_service_http.py::TestConcurrentClients
