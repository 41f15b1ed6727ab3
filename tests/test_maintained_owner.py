"""Maintained results have one owner.

A journaled handle's previous results — what the dynamic maintainers carry
over deltas — live in :class:`repro.incremental.MaintainedResults`
(``handle.maintained``), and every other module goes through its public
``record`` / ``serve`` / ``advance_all`` / ``forget``.  This pin walks the
source of every module outside ``repro/incremental/`` and fails on any
private ``_incremental*`` attribute or the name ``_IncrementalEntry``, so
no compiler, service or session code grows a second way in.  The entries
are keyed by the same one rendering of a request's parameters as compiler
nodes and result-cache entries, ``repro.session.report.canonical_params``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _private_reaches(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each private maintained-state name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_incremental"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "_IncrementalEntry":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ClassDef) and node.name == "_IncrementalEntry":
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "_IncrementalEntry":
            found.append((node.lineno, node.name))
    return sorted(found)


def test_no_module_outside_repro_incremental_reaches_maintained_state_privately():
    modules = [
        path
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "incremental"
    ]
    assert len(modules) > 50  # the walk did find the package
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in modules
        for line, name in _private_reaches(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_the_pin_sees_each_private_form():
    source = (
        "from repro.session.session import _IncrementalEntry\n"
        "handle._incremental_serve(name, params)\n"
        "len(handle._incremental)\n"
        "class _IncrementalEntry:\n"
        "    pass\n"
        "incremental_served = {}\n"
        "handle.maintained.serve(name, params, csr, backend)\n"
    )
    assert _private_reaches(source) == [
        (1, "_IncrementalEntry"),
        (2, "_incremental_serve"),
        (3, "_incremental"),
        (4, "_IncrementalEntry"),
    ]


def test_one_request_key_renders_compiler_and_cache_keys():
    from repro.service import canonical_params
    from repro.service.cache import result_key
    from repro.session import report
    from repro.session.compiler import _algo_key

    assert canonical_params is report.canonical_params
    params = {"tolerance": 1e-9, "damping": 0.85}
    assert canonical_params(params) == "damping=0.85, tolerance=1e-09"
    assert _algo_key("pagerank", params) == "algo:pagerank(damping=0.85, tolerance=1e-09)"
    assert _algo_key("degree", {}) == "algo:degree"
    assert result_key(b"\x01", "pagerank", params, "python")[2] == canonical_params(params)
