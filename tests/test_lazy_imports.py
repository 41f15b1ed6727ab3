"""Imports follow use.

The package ``__init__``s that only re-export resolve their names on first
access (PEP 562), and the CLI and session import the extraction stack where
they run it.  So a warm ``repro analyze`` — a snapshot-cache hit that
reopens the mmap'd CSR by source fingerprint — loads neither the DSL
validator, the relational engine, the planner and extractor, ``repro.dedup``,
the dataset generators nor the worker pool.  These tests pin that clock-free
(by ``sys.modules``), and pin the lazy packages' contract: every exported
name is the defining module's object, never a shadowing submodule, and is
written once — a key of the package's one ``lazy_exports`` table, which
also yields its ``__all__``.
"""

from __future__ import annotations

import ast
import json
import pkgutil
import subprocess
import sys
import types
from collections import Counter
from importlib import import_module

import pytest

from repro._lazy import lazy_exports
from repro.datasets.dblp import COAUTHOR_QUERY, generate_dblp
from repro.relational.csv_io import write_database
from tests.conftest import child_env

#: the re-export-only packages whose ``__init__`` resolves names lazily
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.datasets",
    "repro.dsl",
    "repro.giraph",
    "repro.graph",
    "repro.io",
    "repro.relational",
    "repro.service",
    "repro.session",
    "repro.utils",
    "repro.vertexcentric",
)

#: modules a warm ``repro analyze`` runs no code of, so must not import
NOT_ON_THE_WARM_PATH = (
    "repro.core.graphgen",
    "repro.core.extractor",
    "repro.core.planner",
    "repro.relational.pushdown",
    "repro.relational.query",
    "repro.relational.sqlite_backend",
    "repro.dedup",
    "repro.datasets",
    "repro.service",
    "repro.giraph",
    "repro.vertexcentric.framework",
    "repro.vertexcentric.parallel",
    "repro.graphgenpy",
    "repro.temporal",
    "repro.io",
    "repro.graph.condensed",
    "sqlite3",
    "multiprocessing",
)

#: one ``repro analyze`` in a fresh interpreter: its exit code, what it
#: printed and every module it loaded
RUN_ANALYZE = """
import io, json, sys
from repro.cli import main
out = io.StringIO()
code = main(sys.argv[1:], out=out)
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def run_analyze(*argv: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", RUN_ANALYZE, "analyze", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    assert run["code"] == 0
    return run


def test_a_warm_analyze_imports_only_what_it_runs(tmp_path):
    data = tmp_path / "dblp"
    write_database(generate_dblp(num_authors=60, num_publications=90, seed=3), data)
    query = tmp_path / "coauthors.dl"
    query.write_text(COAUTHOR_QUERY, encoding="utf-8")
    argv = (
        "--data", str(data), "--query-file", str(query), "--extract-engine", "auto",
        "--snapshot-cache", str(tmp_path / "cache"), "--plan-report",
        "--algo", "pagerank", "--algo", "components", "--top", "5",
    )

    cold = run_analyze(*argv)
    warm = run_analyze(*argv)

    cold_answers, _, cold_report = cold["stdout"].partition("--- plan report ---")
    warm_answers, _, warm_report = warm["stdout"].partition("--- plan report ---")
    assert "snapshot (mmap)" in warm_report
    assert "snapshot (mmap)" not in cold_report
    assert warm_answers == cold_answers
    # the cold run did extract (through the sqlite mirror): the pin below
    # is about the reopen, not a run that never needed these modules
    assert {"repro.core.extractor", "sqlite3"} <= set(cold["modules"])
    loaded = sorted(set(NOT_ON_THE_WARM_PATH) & set(warm["modules"]))
    assert loaded == [], f"a warm analyze imported {loaded}"


def walk(package: str) -> list:
    """``package`` and every module below it, each imported."""
    root = import_module(package)
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        modules.append(import_module(info.name))
    return modules


#: exports bound under another name than their defining module's:
#: (package, name) -> that module's name for the object
RENAMED = {("repro", "parse_query"): "parse"}
MISSING = object()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_is_its_defining_modules_object(package):
    module = import_module(package)
    below = [other for other in walk(package) if other is not module]
    for name in module.__all__:
        if name.startswith("__"):  # __version__: defined by the package itself
            continue
        value = getattr(module, name)
        attribute = RENAMED.get((package, name), name)
        holders = [other for other in below if vars(other).get(attribute, MISSING) is value]
        assert holders, f"{package}.{name} is no module's {attribute}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_lazy_package_lists_and_refuses_names_like_an_eager_one(package):
    module = import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_lazy_package_writes_each_export_once(package):
    """``__all__`` is the export table's keys, not a second list: every
    exported name is one string literal in the package ``__init__``."""
    module = import_module(package)
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    literals = Counter(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {name: literals[name] for name in module.__all__} == dict.fromkeys(module.__all__, 1)


def test_lazy_exports_resolves_one_table(monkeypatch):
    package = types.ModuleType("scratch_package")
    namespace = vars(package)
    names, package.__getattr__, package.__dir__ = lazy_exports(
        namespace, {"sqrt": "math", "loads": "json", "encode": ("json", "dumps")}
    )
    monkeypatch.setitem(sys.modules, "scratch_package", package)

    assert names == ["sqrt", "loads", "encode"]  # table order, not sorted
    assert {"sqrt", "loads", "encode"} <= set(dir(package))
    assert "encode" not in namespace
    assert package.encode is json.dumps
    assert namespace["encode"] is json.dumps  # stored: resolved once
    with pytest.raises(AttributeError, match="'scratch_package' has no attribute 'dumps'"):
        package.dumps
    with pytest.raises(ImportError):
        exec("from scratch_package import dumps", {})


#: exports that are submodules on purpose: the DEDUP-1 / BITMAP / DEDUP-2
#: algorithm modules the registries point into
MODULE_EXPORTS = {
    "repro.dedup": {
        "bitmap1",
        "bitmap2",
        "dedup2_greedy",
        "greedy_real_first",
        "greedy_virtual_first",
        "naive_real_first",
        "naive_virtual_first",
    },
}


def test_no_export_is_shadowed_by_a_submodule():
    """Importing a submodule binds it on its package under its own name.
    An exported name equal to a submodule's (``repro.algorithms`` exports the
    function ``label_propagation`` from the module ``label_propagation``)
    must still be the exported object once every submodule is imported."""
    packages = [module for module in walk("repro") if hasattr(module, "__path__")]
    assert len(packages) > len(LAZY_PACKAGES)
    for package in packages:
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name)
            if name in MODULE_EXPORTS.get(package.__name__, ()):
                assert value is sys.modules[f"{package.__name__}.{name}"]
            else:
                assert not isinstance(value, type(sys)), f"{package.__name__}.{name} is a module"


def test_the_algorithm_modules_load_no_incremental_layer():
    """A free function's module shapes its own vector: importing it loads
    neither the maintainers nor the delta journal they read."""
    script = (
        "import json, sys\n"
        "import repro.algorithms.pagerank, repro.algorithms.bfs\n"
        "import repro.algorithms.connected_components\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = [
        name
        for name in json.loads(done.stdout)
        if name.startswith("repro.incremental") or name == "repro.graph.delta"
    ]
    assert loaded == []
