"""The snapshot store installs every file through one writer.

``repro.graph.snapshot_store.atomic_write`` writes a temp file beside the
target and ``os.replace``s it over the target; ``save_snapshot``,
``SnapshotStore.record_source``, ``write_journal`` and the shard writer all
go through it.  Pinned here:

* two threads writing one path each install a complete file — their temp
  files are named per writer (``<name>.tmp.<pid>.<thread id>``), so the
  second rename never finds its temp file already moved away;
* ``os.replace`` appears in exactly one function under ``src/repro/``;
* a write that fails after byte ``k``, for every ``k``, leaves the target
  holding its old bytes (or absent) and no temp file behind.
"""

from __future__ import annotations

import ast
import builtins
import os
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.graph import ExpandedGraph, SnapshotStore
from repro.graph import snapshot_store
from repro.graph.delta import read_journal, write_journal
from repro.graph.snapshot_store import atomic_write, load_snapshot, save_snapshot

PACKAGE = Path(repro.__file__).resolve().parent


def _triangle(*extra):
    """A 3-vertex snapshot; ``extra`` edges make a different one."""
    return ExpandedGraph.from_edges([(1, 2), (2, 3), (3, 1), *extra]).snapshot()


def _leftovers(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir() if ".tmp." in path.name)


# --------------------------------------------------------------------------- #
# concurrent writers of one path
# --------------------------------------------------------------------------- #
def _both_in_replace(monkeypatch) -> None:
    """Hold every ``os.replace`` until two writers have reached it."""
    barrier = threading.Barrier(2, timeout=10)
    real = os.replace

    def replace(src, dst):
        barrier.wait()
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _run_in_two_threads(write) -> list[BaseException]:
    errors: list[BaseException] = []

    def run() -> None:
        try:
            write()
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestConcurrentWriters:
    def test_two_threads_save_one_snapshot_path(self, tmp_path, monkeypatch):
        snap = _triangle()
        path = tmp_path / "one.csr"
        _both_in_replace(monkeypatch)
        assert _run_in_two_threads(lambda: save_snapshot(snap, path)) == []
        assert load_snapshot(path, verify=True).content_hash == snap.content_hash
        assert _leftovers(tmp_path) == []

    def test_two_threads_record_one_source_sidecar(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path)
        snap = _triangle()
        store.save(snap, "k")
        _both_in_replace(monkeypatch)
        record = lambda: store.record_source("k", "fingerprint", snap, "exp")  # noqa: E731
        assert _run_in_two_threads(record) == []
        monkeypatch.undo()
        found = store.lookup("k", "fingerprint")
        assert found is not None and found[0].content_hash == snap.content_hash
        assert _leftovers(tmp_path) == []

    def test_two_threads_write_one_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "one.csrd"
        records = [("+", (1, 2)), ("V", 9), ("-", (2, 3))]
        _both_in_replace(monkeypatch)
        assert _run_in_two_threads(lambda: write_journal(path, b"\x07" * 32, records)) == []
        assert read_journal(path) == (b"\x07" * 32, records)
        assert _leftovers(tmp_path) == []

    def test_more_threads_than_cores_keep_saving_one_path(self, tmp_path):
        """Unsynchronised stress: every save of every thread succeeds, and
        the path always ends up holding one whole snapshot."""
        snaps = [_triangle(), _triangle((1, 3)), _triangle((2, 1)), _triangle((3, 2))]
        path = tmp_path / "busy.csr"
        errors: list[BaseException] = []

        def run(snap) -> None:
            try:
                for _ in range(5):
                    save_snapshot(snap, path)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(snap,)) for snap in snaps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        loaded = load_snapshot(path, verify=True).content_hash
        assert loaded in {snap.content_hash for snap in snaps}
        assert _leftovers(tmp_path) == []


# --------------------------------------------------------------------------- #
# one os.replace
# --------------------------------------------------------------------------- #
def _replace_sites(source: str) -> list[str]:
    """The function (or ``<module>``) of each ``os.replace`` / ``os.rename``
    reference or ``from os import replace|rename`` in ``source``."""
    sites: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in ("replace", "rename")
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
            ):
                sites.append(owner)
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                sites.extend(owner for alias in child.names if alias.name in ("replace", "rename"))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_os_replace_lives_in_one_function():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50  # the walk did find the package
    sites = [
        f"{path.relative_to(PACKAGE).as_posix()}:{site}"
        for path in modules
        for site in _replace_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == ["graph/snapshot_store.py:atomic_write"]


def test_the_pin_sees_each_form():
    source = (
        "import os\n"
        "from os import replace\n"
        "os.rename(a, b)\n"
        "def install(tmp, path):\n"
        "    os.replace(tmp, path)\n"
        "class Store:\n"
        "    def save(self):\n"
        "        return os.replace\n"
        "text.replace('a', 'b')\n"
    )
    assert _replace_sites(source) == ["<module>", "<module>", "install", "save"]


# --------------------------------------------------------------------------- #
# a fault after any byte
# --------------------------------------------------------------------------- #
class _InjectedFault(OSError):
    pass


def _fail_after(budget: int):
    """An ``open`` whose files accept ``budget`` bytes, then raise."""

    class FaultyFile:
        def __init__(self, handle) -> None:
            self._handle = handle
            self._left = budget

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            self._handle.close()

        def write(self, chunk) -> int:
            data = memoryview(chunk).cast("B")
            taken = data[: self._left]
            self._handle.write(taken)
            self._left -= len(taken)
            if len(taken) < len(data):
                raise _InjectedFault(f"injected fault after byte {budget}")
            return len(data)

    def faulty_open(path, mode="r", *args, **kwargs):
        return FaultyFile(builtins.open(path, mode, *args, **kwargs))

    return faulty_open


@pytest.mark.parametrize("had_old_file", [False, True], ids=["new", "over-old"])
def test_a_write_cut_after_any_byte_leaves_old_or_nothing(tmp_path, monkeypatch, had_old_file):
    old = _triangle((1, 3))
    new = _triangle()
    path = tmp_path / "cut.csr"
    save_snapshot(new, path)
    new_bytes = path.read_bytes()
    path.unlink()
    if had_old_file:
        save_snapshot(old, path)
    old_bytes = path.read_bytes() if had_old_file else None

    for k in range(len(new_bytes) + 1):
        monkeypatch.setattr(snapshot_store, "open", _fail_after(k), raising=False)
        try:
            save_snapshot(new, path)
        except _InjectedFault:
            assert k < len(new_bytes)
            assert (path.read_bytes() if path.exists() else None) == old_bytes, k
        else:
            assert k == len(new_bytes)
            assert path.read_bytes() == new_bytes
        assert _leftovers(tmp_path) == [], k
        monkeypatch.undo()


def test_a_failed_rename_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"old")

    def replace(src, dst):
        raise PermissionError("injected rename failure")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(PermissionError):
        atomic_write(path, b"new", b" bytes")
    assert path.read_bytes() == b"old"
    assert _leftovers(tmp_path) == []


def test_the_installed_file_keeps_the_default_mode(tmp_path):
    written = atomic_write(tmp_path / "mode.bin", b"x")
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"x")
    assert written.stat().st_mode == plain.stat().st_mode
