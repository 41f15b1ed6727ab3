PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-fast test-session test-service test-incremental test-dedup test-planner test-extract test-algorithms test-representations test-store smoke serve-smoke loc all help

help:
	@echo "make test | all   - the whole suite (tests/, tier-1 equivalent), the"
	@echo "                    paper-figure pins (tests/test_paper_*) included"
	@echo "make test-fast    - same, minus slow-marked stress tests and heavy paper"
	@echo "                    tables, once per kernel backend (python + numpy leg)"
	@echo "make test-session - session layer: lifecycle, API-compat shims,"
	@echo "                    public-API stability, CLI, plan scheduling, the lazy"
	@echo "                    packages (one export table each, a warm analyze"
	@echo "                    imports only what it runs)"
	@echo "make test-service - service layer: JSON codec, result cache, HTTP"
	@echo "                    front-end, session concurrency regressions,"
	@echo "                    the incremental write path (repair on read), fig18:"
	@echo "                    a cache hit executes no plan, responses bit-identical"
	@echo "make test-incremental - the maintainers: maintained == a cold recompute on"
	@echo "                    generated journal windows (both backends; triangle"
	@echo "                    counts exactly, clustering shaped from them bit for"
	@echo "                    bit, triangle_pairs == the pairs whose adjacency"
	@echo "                    changed), BFS removal repairs, the ring schedule's"
	@echo "                    tally and work pins, one netting per window for every"
	@echo "                    entry at its position; the service pin: a write"
	@echo "                    carries triangles + clustering and the next read"
	@echo "                    repairs both with no triangle pass, one"
	@echo "                    triangle-counts maintainer run per window for both"
	@echo "                    (repair on read and refresh()), the shared vector kept"
	@echo "                    while either result is cached;"
	@echo "                    the delta journal + overlay suite (an extended overlay"
	@echo "                    == a one-shot one; added / removed / prior_present =="
	@echo "                    a brute-force netting of any split stream: the one"
	@echo "                    netting the maintainers read); PageRank's parent"
	@echo "                    digests, stop decision and dense/sparse push counts;"
	@echo "                    the pin that only repro.incremental.MaintainedResults"
	@echo "                    touches the maintained state (no _incremental* name"
	@echo "                    elsewhere); the algorithm modules load no"
	@echo "                    repro.incremental* and no repro.graph.delta"
	@echo "make test-dedup   - DEDUP-1/BITMAP/DEDUP-2 suites, the identity goldens"
	@echo "                    (every algorithm x ordering, edge for edge), the"
	@echo "                    probe pins, maintained-mask property, fig12 shapes"
	@echo "make test-planner - the condense-vs-expand rule: catalog counts, exact join"
	@echo "                    sizes, decisions == brute force on generated chains,"
	@echo "                    one plan per engine, no statement to the mirror"
	@echo "make test-extract - the one extraction loader: pushdown parity matrix, row"
	@echo "                    engines, aggregates, sqlite mirror, every engine == the"
	@echo "                    brute-force full join, engines x appended rows (Node"
	@echo "                    too), an extended extraction == a cold one after every"
	@echo "                    append (spliced snapshot == full build), the delta"
	@echo "                    path's work pins (no statement, no build, re-walks =="
	@echo "                    brute force, row copies == the rows it writes) and one"
	@echo "                    cold-path note per condition, every handle of a chain"
	@echo "                    of extensions intact, a copy never sees its source's"
	@echo "                    writes (copy-on-write property), the DEDUP-1 golden"
	@echo "                    graph, Table 1 (condensed vs full + pushdown work"
	@echo "                    pins: one scan, distinct rows only)"
	@echo "make test-algorithms - one runner per algorithm: plan == runner == free"
	@echo "                    function on both backends (generated plans), the"
	@echo "                    free functions' checks (a bad parameter or seed is a"
	@echo "                    400 over HTTP), backend and representation parity"
	@echo "                    (similarity ==), the block-sweep digests, the API"
	@echo "                    shims; the pin that the plan compiler names no"
	@echo "                    algorithm (each sweep runner is its finish over its"
	@echo "                    one demand, the finish a plan calls too)"
	@echo "make test-representations - the condensed representations' one walk:"
	@echo "                    graph and kernel suites, representation parity,"
	@echo "                    BITMAP, fig13 walk counts, every walk == a brute-force"
	@echo "                    Section 4.1 reachability, mutations == EXP; copy-on-write"
	@echo "                    rows: a copy never sees its source's writes, old"
	@echo "                    handles intact, row copies == the rows written; an"
	@echo "                    edge annotation goes with its edge"
	@echo "make test-store   - the snapshot store: .csr / .src / .csrd formats and"
	@echo "                    their errors, the delta journal, fingerprinted"
	@echo "                    reopens, shard files, fig14; the one writer: two"
	@echo "                    threads writing one path both install a whole file,"
	@echo "                    os.replace in one function, a write cut after any"
	@echo "                    byte leaves the old file or none and no temp file"
	@echo "make smoke        - seconds-fast sanity subset (kernel, parity, algorithms,"
	@echo "                    python-vs-numpy maintainer parity, block-sweep kernel,"
	@echo "                    hook-and-jump components + frontier-adaptive BFS,"
	@echo "                    extraction engines x appended rows, an extended"
	@echo "                    extraction == a cold one + the delta path's pins (row"
	@echo "                    copies included), old handles intact, copy-on-write"
	@echo "                    isolation, one plan DAG at every parallelism + exact"
	@echo "                    sweep/triangle slices)"
	@echo "make serve-smoke  - boot 'repro serve' + concurrent HTTP clients end-to-end"
	@echo "make loc          - wc -l totals of the .py files under src/, tests/, bench/"

test all:
	$(PYTEST) -q

test-fast:
	REPRO_KERNEL_BACKEND=python $(PYTEST) -q tests/ -m "not slow"
	REPRO_KERNEL_BACKEND=numpy $(PYTEST) -q tests/ -m "not slow"

test-session:
	$(PYTEST) -q tests/test_session.py tests/test_api_compat.py \
		tests/test_public_api.py tests/test_cli.py tests/test_plan_scheduling.py \
		tests/test_plan_compiler.py tests/test_lazy_imports.py

test-incremental:
	$(PYTEST) -q tests/test_incremental.py tests/test_graph_delta.py \
		tests/test_pagerank_kernel.py tests/test_maintained_owner.py \
		tests/test_property_invariants.py::test_property_maintained_results_equal_a_cold_recompute \
		tests/test_lazy_imports.py::test_the_algorithm_modules_load_no_incremental_layer

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
		tests/test_property_invariants.py::test_property_an_extended_extraction_equals_a_cold_one \
		tests/test_property_invariants.py::test_property_a_copy_and_its_source_never_see_each_others_writes \
		tests/test_dedup_identity.py::test_dedup1_builds_the_recorded_graph \
		tests/test_paper_table1_extraction.py

test-algorithms:
	$(PYTEST) -q tests/test_algorithms*.py tests/test_backend_parity.py \
		tests/test_representation_parity.py tests/test_sweep_kernel.py \
		tests/test_api_compat.py \
		tests/test_property_invariants.py::test_property_plan_results_equal_their_kernel_runners \
		tests/test_compiler_names_no_algorithm.py \
		tests/test_service_http.py::TestErrorContract::test_mistyped_params_are_400_not_500 \
		tests/test_service_http.py::TestErrorContract::test_a_seed_or_flag_of_the_wrong_type_is_400

test-representations:
	$(PYTEST) -q tests/test_graph_*.py tests/test_representation_parity.py \
		tests/test_kernel.py tests/test_dedup_bitmap.py \
		tests/test_paper_fig13_micro.py \
		tests/test_property_invariants.py::test_property_every_walk_matches_brute_force_reachability \
		tests/test_property_invariants.py::test_property_mutations_keep_every_representation_equal_to_exp \
		tests/test_property_invariants.py::test_property_a_copy_and_its_source_never_see_each_others_writes \
		tests/test_sqlite_mirror.py::test_every_handle_of_a_chain_of_extensions_stays_intact \
		tests/test_sqlite_mirror.py::test_an_extension_copies_only_the_rows_it_writes

test-store:
	$(PYTEST) -q tests/test_snapshot_store.py tests/test_graph_delta.py \
		tests/test_source_fingerprint.py tests/test_shard_store.py \
		tests/test_paper_fig14_persistence.py tests/test_store_writer.py

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
		tests/test_property_invariants.py::test_property_an_extended_extraction_equals_a_cold_one \
		tests/test_sqlite_mirror.py::test_a_new_session_extends_the_last_extraction \
		tests/test_sqlite_mirror.py::test_a_graph_handed_out_never_changes_under_a_later_delta \
		tests/test_sqlite_mirror.py::test_each_condition_the_delta_path_needs_sends_it_cold \
		tests/test_sqlite_mirror.py::test_every_handle_of_a_chain_of_extensions_stays_intact \
		tests/test_sqlite_mirror.py::test_an_extension_copies_only_the_rows_it_writes \
		tests/test_property_invariants.py::test_property_a_copy_and_its_source_never_see_each_others_writes \
		tests/test_plan_compiler.py::test_property_one_dag_at_every_parallelism \
		tests/test_plan_compiler.py::test_ranged_triangle_vectors_add_up_under_every_split \
		tests/test_plan_compiler.py::test_strided_sweep_split_covers_each_source_once

serve-smoke:
	$(PYTEST) -q tests/test_service_http.py::TestServeCommand \
		tests/test_service_http.py::TestConcurrentClients

loc:
	@for dir in src tests bench; do \
		printf '%-7s%s\n' "$$dir/" "$$(find $$dir -name '*.py' -print0 | xargs -0 cat | wc -l)"; \
	done
