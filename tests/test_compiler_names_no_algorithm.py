"""The plan compiler names no algorithm.

Everything :mod:`repro.session.compiler` needs to know about an algorithm
is a field of its :data:`~repro.session.plan.PLAN_ALGORITHMS` entry: the
derive views its kernel reads, and for a sweep algorithm its ``demand`` and
``finish`` (:mod:`repro.algorithms.centrality`).  So "which sources does
this request sweep, and how is its value read off the sweep" is written
once, in the algorithm's module, and a plan equals its runner because both
call the same ``finish``.  This pin walks the compiler's source and fails on
any string constant equal to a registry name (docstrings excluded) and on
any import from the sweep algorithms' modules; a second pin checks that
each sweep runner is its ``finish`` over its one demand swept alone.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import repro.session.compiler as compiler
from repro.session.plan import PLAN_ALGORITHMS

#: the modules holding the sweep algorithms' demands and finishes
SWEEP_MODULES = ("bfs", "centrality", "shortest_paths")


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _is_sweep_module(name: str | None) -> bool:
    """A sweep algorithm's module, or anything below it."""
    return (name or "").split(".")[:3] in [["repro", "algorithms", m] for m in SWEEP_MODULES]


def _algorithm_mentions(source: str, names) -> list[tuple[int, str]]:
    """``(line, what)`` of each algorithm name or sweep-module import in
    ``source``."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in names
            and id(node) not in docstrings
        ):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
            if node.module == "repro.algorithms":
                modules += [f"repro.algorithms.{alias.name}" for alias in node.names]
            found += [
                (node.lineno, f"import {module}") for module in modules if _is_sweep_module(module)
            ]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if _is_sweep_module(alias.name)
            ]
    return sorted(found)


def test_the_compiler_names_no_algorithm():
    source = Path(compiler.__file__).read_text(encoding="utf-8")
    assert len(PLAN_ALGORITHMS) >= 12  # the registry was found
    assert _algorithm_mentions(source, set(PLAN_ALGORITHMS)) == []
    assert not hasattr(compiler, "_finalise_from_sweep")
    assert not hasattr(compiler, "_UND_CONSUMERS")


def test_the_pin_sees_each_form():
    source = textwrap.dedent(
        '''\
        """closeness"""
        from repro.algorithms.centrality import closeness_value
        from repro.algorithms import shortest_paths, pagerank
        import repro.algorithms.bfs
        def finalise(name):
            """betweenness"""
            return name == "betweenness" or f"{name}" == "sweep"
        CONSUMERS = {"kcore", "und-csr"}
        from repro.algorithms.kcore import kcore_runner
        '''
    )
    assert _algorithm_mentions(source, set(PLAN_ALGORITHMS)) == [
        (2, "import repro.algorithms.centrality"),
        (3, "import repro.algorithms.shortest_paths"),
        (4, "import repro.algorithms.bfs"),
        (7, "'betweenness'"),
        (8, "'kcore'"),
    ]


def test_each_sweep_runner_is_its_finish_over_its_one_demand():
    """closeness, betweenness and diameter: the runner calls the registry's
    own ``demand`` and ``finish`` through the one-demand collector, so a plan
    (which calls the same ``finish``) equals it by construction."""
    swept = [spec for spec in PLAN_ALGORITHMS.values() if spec.finish is not None]
    assert sorted(spec.name for spec in swept) == ["betweenness", "bfs", "closeness", "diameter"]
    for spec in swept:
        assert spec.demand is not None, spec.name
        if spec.dense is not None:  # bfs: a maintainable runner, shape(dense)
            continue
        called = {
            node.func.id
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(spec.kernel))))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert {spec.demand.__name__, spec.finish.__name__, "sweep_answer"} <= called, spec.name
