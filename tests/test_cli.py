"""Tests for the command-line interface."""

import io
import subprocess
import sys

import pytest

from repro.cli import BUILTIN_DATASETS, build_parser, main
from repro.relational.csv_io import write_database
from repro.relational.database import Database
from tests.conftest import child_env


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def csv_db_dir(tmp_path):
    """A small CSV database directory for --data tests."""
    db = Database("friends")
    db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
    db.create_table("Likes", [("src", "int"), ("item", "int")])
    db.insert("Person", [(1, "a"), (2, "b"), (3, "c")])
    db.insert("Likes", [(1, 10), (2, 10), (2, 11), (3, 11)])
    directory = tmp_path / "csvdb"
    write_database(db, directory)
    return directory


CSV_QUERY = """
Nodes(ID, Name) :- Person(ID, Name).
Edges(ID1, ID2) :- Likes(ID1, Item), Likes(ID2, Item).
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_extract_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract", "--output", "x"])

    def test_data_and_dataset_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["extract", "--data", "d", "--dataset", "dblp", "--output", "x"]
            )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze", "--dataset", "univ", "--shards", "2"], "--shards"),
            (["serve", "--dataset", "univ", "--memory-budget", "64"], "--memory-budget"),
            (["analyze", "--dataset", "univ", "--memory-budget", "64"], "--memory-budget"),
            (["serve", "--dataset", "univ", "--shards", "2"], "--shards"),
        ],
    )
    def test_removed_flags_fail_loudly(self, argv, flag):
        """The out-of-core flags are gone: argparse refuses them with exit
        status 2 and one stderr line naming the flag, no traceback."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        naming = [line for line in done.stderr.splitlines() if flag in line]
        assert naming == [f"graphgen: error: unrecognized arguments: {flag} {argv[-1]}"]
        assert "Traceback" not in done.stderr


class TestServeCommand:
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_a_cache_size_below_one_is_a_one_line_usage_error(self, size):
        """Like ``--max-inflight 0``: exit status 1 and one ``error:`` line,
        no traceback, and no server bound."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--dataset", "univ", "--cache-size", size],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [f"error: cache_size must be at least 1 (got {size})"]
        assert "serving on" not in done.stdout


class TestDatasetsCommand:
    def test_lists_all_builtins(self):
        code, output = run_cli("datasets")
        assert code == 0
        for name in BUILTIN_DATASETS:
            assert name in output
        assert "Edges" in output


class TestExtractCommand:
    def test_extract_builtin_dataset_to_edgelist(self, tmp_path):
        output_file = tmp_path / "univ.tsv"
        code, output = run_cli(
            "extract", "--dataset", "univ", "--scale", "0.2", "--output", str(output_file)
        )
        assert code == 0
        assert output_file.exists()
        assert "num_edges" in output

    def test_extract_from_csv_directory(self, csv_db_dir, tmp_path):
        query_file = tmp_path / "query.dl"
        query_file.write_text(CSV_QUERY, encoding="utf-8")
        output_file = tmp_path / "likes.tsv"
        code, _ = run_cli(
            "extract",
            "--data", str(csv_db_dir),
            "--query-file", str(query_file),
            "--output", str(output_file),
            "--format", "adjacency",
        )
        assert code == 0
        assert output_file.exists()

    def test_missing_query_for_csv_database_fails(self, csv_db_dir, tmp_path):
        code, _ = run_cli(
            "extract", "--data", str(csv_db_dir), "--output", str(tmp_path / "x.tsv")
        )
        assert code == 1


class TestExplainCommand:
    def test_explain_builtin(self):
        code, output = run_cli("explain", "--dataset", "dblp", "--scale", "0.2")
        assert code == 0
        assert "extraction plan" in output
        assert "SELECT" in output

    def test_explain_inline_query(self, csv_db_dir):
        code, output = run_cli("explain", "--data", str(csv_db_dir), "--query", CSV_QUERY)
        assert code == 0
        assert "LARGE-OUTPUT" in output or "small" in output


class TestAnalyzeCommand:
    @pytest.mark.parametrize("algorithm", ["degree", "pagerank", "components"])
    def test_algorithms_run(self, algorithm):
        code, output = run_cli(
            "analyze", "--dataset", "univ", "--scale", "0.2", "--algorithm", algorithm, "--top", "3"
        )
        assert code == 0
        assert output.strip()

    def test_bfs_with_source(self, csv_db_dir):
        code, output = run_cli(
            "analyze",
            "--data", str(csv_db_dir),
            "--query", CSV_QUERY,
            "--algorithm", "bfs",
            "--source", "1",
        )
        assert code == 0
        assert "reachable vertices" in output

    def test_bfs_without_source_fails(self, csv_db_dir):
        code, _ = run_cli(
            "analyze", "--data", str(csv_db_dir), "--query", CSV_QUERY, "--algorithm", "bfs"
        )
        assert code == 1

    def test_bfs_with_unknown_source_fails(self, csv_db_dir):
        code, _ = run_cli(
            "analyze",
            "--data", str(csv_db_dir),
            "--query", CSV_QUERY,
            "--algorithm", "bfs",
            "--source", "999",
        )
        assert code == 1

    def test_representation_flag(self):
        code, output = run_cli(
            "analyze",
            "--dataset", "univ",
            "--scale", "0.2",
            "--algorithm", "degree",
            "--representation", "dedup1",
        )
        assert code == 0
        assert output.strip()


class TestSnapshotCacheAndParallel:
    def test_snapshot_cache_persists_and_is_reused(self, tmp_path):
        cache = tmp_path / "snapshots"
        argv = (
            "analyze", "--dataset", "univ", "--scale", "0.2",
            "--algorithm", "pagerank", "--top", "3",
            "--snapshot-cache", str(cache),
        )
        code, cold = run_cli(*argv)
        assert code == 0
        files = list(cache.glob("*.csr"))
        assert len(files) == 1
        stamp = files[0].stat().st_mtime_ns
        # warm run: same output, cache file untouched (hash matched)
        code, warm = run_cli(*argv)
        assert code == 0
        assert warm == cold
        assert files[0].stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("algorithm", ["degree", "components", "pagerank", "kcore"])
    def test_parallel_output_identical_to_serial(self, tmp_path, algorithm):
        """``--parallel`` never changes an answer or adds a note: every
        algorithm — pagerank included — prints exactly the serial run's
        output at any worker count."""
        base = (
            "analyze", "--dataset", "univ", "--scale", "0.2",
            "--algorithm", algorithm, "--top", "5",
        )
        code, serial = run_cli(*base)
        assert code == 0
        for parallel in ("2", "3"):
            code, output = run_cli(
                *base, "--parallel", parallel,
                "--snapshot-cache", str(tmp_path / "snapshots"),
            )
            assert code == 0
            assert output == serial, f"--parallel {parallel} output diverged"

    def test_parallel_components_and_bfs(self, csv_db_dir):
        code, serial = run_cli(
            "analyze", "--data", str(csv_db_dir), "--query", CSV_QUERY,
            "--algorithm", "components",
        )
        code, output = run_cli(
            "analyze", "--data", str(csv_db_dir), "--query", CSV_QUERY,
            "--algorithm", "components", "--parallel", "2",
        )
        assert code == 0
        assert output == serial
        code, serial = run_cli(
            "analyze", "--data", str(csv_db_dir), "--query", CSV_QUERY,
            "--algorithm", "bfs", "--source", "1",
        )
        code, output = run_cli(
            "analyze", "--data", str(csv_db_dir), "--query", CSV_QUERY,
            "--algorithm", "bfs", "--source", "1", "--parallel", "2",
        )
        assert code == 0
        assert output == serial
        assert "reachable vertices: 3" in output

    def test_parallel_on_non_symmetric_graph_matches_serial(self, tmp_path):
        """The bipartite instructor->student graph is directed; ``--parallel``
        runs the same kernels on it and prints the same answer, no note."""
        db = Database("uni")
        db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
        db.create_table("Taught", [("iid", "int"), ("cid", "int")])
        db.create_table("Took", [("sid", "int"), ("cid", "int")])
        db.insert("Person", [(1, "i1"), (2, "s1"), (3, "s2"), (4, "s3")])
        db.insert("Taught", [(1, 10), (1, 11)])
        db.insert("Took", [(2, 10), (3, 10), (3, 11), (4, 11)])
        directory = tmp_path / "bipartite"
        write_database(db, directory)
        query = """
        Nodes(ID, Name) :- Person(ID, Name).
        Edges(ID1, ID2) :- Taught(ID1, CourseID), Took(ID2, CourseID).
        """
        for algorithm, extra in (("components", ()), ("bfs", ("--source", "1"))):
            base = (
                "analyze", "--data", str(directory), "--query", query,
                "--algorithm", algorithm, *extra,
            )
            code, serial = run_cli(*base)
            assert code == 0
            code, parallel = run_cli(*base, "--parallel", "2")
            assert code == 0
            assert parallel == serial

    def test_parallel_triangles_runs_chunked_with_identical_output(self):
        """The triangle pass is one of the two sliced nodes: counted per
        vertex range over the shared snapshot, merged exactly — the output
        is byte-identical to the serial run, with no note."""
        base = ("analyze", "--dataset", "univ", "--scale", "0.2", "--algorithm", "triangles")
        code, serial = run_cli(*base)
        assert code == 0
        code, parallel = run_cli(*base, "--parallel", "2")
        assert code == 0
        assert "running serial kernel" not in parallel
        assert parallel == serial

class TestAlgoFlag:
    """The repeatable --algo flag: batches share one snapshot build."""

    BASE = ("analyze", "--dataset", "univ", "--scale", "0.2", "--top", "3")

    def test_multi_algo_output_has_per_algorithm_sections(self):
        code, output = run_cli(*self.BASE, "--algo", "pagerank", "--algo", "components")
        assert code == 0
        assert "--- pagerank ---" in output
        assert "--- components ---" in output
        assert "components:" in output

    def test_multi_algo_matches_individual_runs(self):
        code, batched = run_cli(*self.BASE, "--algo", "pagerank", "--algo", "components")
        assert code == 0
        code, pagerank_only = run_cli(*self.BASE, "--algorithm", "pagerank")
        assert code == 0
        code, components_only = run_cli(*self.BASE, "--algorithm", "components")
        assert code == 0
        assert batched == (
            "--- pagerank ---\n" + pagerank_only + "--- components ---\n" + components_only
        )

    def test_multi_algo_builds_snapshot_exactly_once(self):
        from repro.graph.kernel import CSRGraph

        before = CSRGraph.build_count
        code, _ = run_cli(
            *self.BASE, "--algo", "pagerank", "--algo", "components", "--algo", "triangles"
        )
        assert code == 0
        assert CSRGraph.build_count - before == 1

    def test_single_algo_output_identical_to_legacy_flag(self):
        code, legacy = run_cli(*self.BASE, "--algorithm", "degree")
        assert code == 0
        code, modern = run_cli(*self.BASE, "--algo", "degree")
        assert code == 0
        assert modern == legacy

    def test_new_plan_algorithms_reachable_from_cli(self):
        code, output = run_cli(
            *self.BASE, "--algo", "clustering", "--algo", "closeness", "--algo", "diameter"
        )
        assert code == 0
        assert "average clustering:" in output
        assert "closeness" in output
        assert "approximate diameter:" in output

    def test_unknown_algo_is_usage_error_naming_the_flag(self, capsys):
        code, _ = run_cli(*self.BASE, "--algo", "sssp")
        assert code == 1
        err = capsys.readouterr().err
        assert "--algo" in err and "'sssp'" in err
        assert "pagerank" in err  # the valid choices are listed
        assert "Traceback" not in err

    def test_algo_and_algorithm_together_is_usage_error(self, capsys):
        code, _ = run_cli(*self.BASE, "--algorithm", "degree", "--algo", "pagerank")
        assert code == 1
        err = capsys.readouterr().err
        assert "--algorithm" in err and "--algo" in err
        assert "Traceback" not in err

    def test_algo_bfs_requires_source(self, capsys):
        code, _ = run_cli(*self.BASE, "--algo", "bfs")
        assert code == 1
        assert "--source is required" in capsys.readouterr().err

    def test_algo_batch_with_parallel_and_cache(self, tmp_path):
        code, serial = run_cli(*self.BASE, "--algo", "degree", "--algo", "components")
        assert code == 0
        code, parallel = run_cli(
            *self.BASE, "--algo", "degree", "--algo", "components",
            "--parallel", "2", "--snapshot-cache", str(tmp_path / "snaps"),
        )
        assert code == 0
        assert parallel == serial  # superstep results are canonicalised


class TestSnapshotCacheKeying:
    """Regression: the cache key covers everything that changes snapshot
    content/identity (dataset args + query + representation)."""

    def test_different_representations_never_collide(self, tmp_path):
        cache = tmp_path / "snapshots"
        for representation in ("cdup", "exp"):
            code, _ = run_cli(
                "analyze", "--dataset", "univ", "--scale", "0.2",
                "--algorithm", "degree", "--representation", representation,
                "--snapshot-cache", str(cache),
            )
            assert code == 0
        files = sorted(path.name for path in cache.glob("*.csr"))
        assert len(files) == 2, f"representations share a cache file: {files}"
        assert any("cdup" in name for name in files)
        assert any("exp" in name for name in files)

    def test_dataset_args_and_query_in_key(self, tmp_path):
        cache = tmp_path / "snapshots"
        base = ("analyze", "--dataset", "univ", "--algorithm", "degree",
                "--snapshot-cache", str(cache))
        for extra in ((), ("--scale", "0.4"), ("--seed", "7")):
            code, _ = run_cli(*base, *extra)
            assert code == 0
        assert len(list(cache.glob("*.csr"))) == 3

    def test_same_named_data_dirs_never_collide(self, tmp_path):
        """Two CSV directories with the same basename get distinct keys."""
        from repro.relational.csv_io import write_database

        cache = tmp_path / "snapshots"
        for parent, extra_person in (("one", []), ("two", [(4, "d")])):
            db = Database("friends")
            db.create_table("Person", [("id", "int"), ("name", "str")], primary_key="id")
            db.create_table("Likes", [("src", "int"), ("item", "int")])
            db.insert("Person", [(1, "a"), (2, "b"), (3, "c")] + extra_person)
            db.insert("Likes", [(1, 10), (2, 10), (2, 11), (3, 11)])
            directory = tmp_path / parent / "db"
            write_database(db, directory)
            code, _ = run_cli(
                "analyze", "--data", str(directory), "--query", CSV_QUERY,
                "--algorithm", "degree", "--snapshot-cache", str(cache),
            )
            assert code == 0
        assert len(list(cache.glob("*.csr"))) == 2


class TestBackendFlag:
    BASE = ("analyze", "--dataset", "univ", "--scale", "0.2", "--top", "5")

    @pytest.fixture(autouse=True)
    def _require_numpy(self):
        from repro.graph.backend import numpy_available

        if not numpy_available():  # pragma: no cover - numpy is baked in
            pytest.skip("numpy backend not available")

    def test_invalid_parallel_is_usage_error_not_traceback(self, capsys):
        """--parallel 0 and --parallel -3 exit 1 with a clear message."""
        for bad in ("0", "-3"):
            code, _ = run_cli(*self.BASE, "--algorithm", "degree", "--parallel", bad)
            assert code == 1
            err = capsys.readouterr().err
            assert "--parallel must be at least 1" in err
            assert "Traceback" not in err

    def test_unknown_backend_is_usage_error(self, capsys):
        code, _ = run_cli(*self.BASE, "--algorithm", "degree", "--backend", "fortran")
        assert code == 1
        err = capsys.readouterr().err
        assert "--backend" in err and "'fortran'" in err
        assert "python" in err and "numpy" in err  # the valid choices are listed
        assert "Traceback" not in err

    @pytest.mark.parametrize("algorithm", ["degree", "components", "bfs", "kcore", "triangles"])
    def test_backends_print_identical_int_results(self, algorithm):
        extra = ("--source", "1") if algorithm == "bfs" else ()
        outputs = {}
        for backend in ("python", "numpy", "auto"):
            code, outputs[backend] = run_cli(
                *self.BASE, "--algorithm", algorithm, *extra, "--backend", backend
            )
            assert code == 0
        assert outputs["python"] == outputs["numpy"] == outputs["auto"]

    def test_backend_pagerank_within_print_precision(self):
        """Six printed decimals are far coarser than the 1e-9 contract."""
        code, python_out = run_cli(*self.BASE, "--algorithm", "pagerank", "--backend", "python")
        assert code == 0
        code, numpy_out = run_cli(*self.BASE, "--algorithm", "pagerank", "--backend", "numpy")
        assert code == 0
        assert python_out == numpy_out

    def test_backend_flag_does_not_leak_between_invocations(self, monkeypatch):
        from repro.graph.backend import BACKEND_ENV_VAR, get_backend, numpy_available

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        code, _ = run_cli(*self.BASE, "--algorithm", "degree", "--backend", "python")
        assert code == 0
        if numpy_available():
            assert get_backend().name == "numpy"  # auto resolution restored

    def test_backend_with_parallel_workers(self, tmp_path):
        base = (*self.BASE, "--algorithm", "components")
        code, serial = run_cli(*base)
        assert code == 0
        for backend in ("python", "numpy"):
            code, output = run_cli(
                *base, "--parallel", "2", "--backend", backend,
                "--snapshot-cache", str(tmp_path / backend),
            )
            assert code == 0
            assert output == serial, f"backend {backend} diverged under --parallel"
