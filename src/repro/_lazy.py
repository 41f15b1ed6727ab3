"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that only re-exports names from its submodules declares where
each name lives; the submodule is imported on the first attribute access,
not when the package is.  So ``import repro.graph.snapshot_store`` loads
that module and the package shell only, and a warm ``repro analyze`` —
which reopens an mmap'd snapshot — never imports the extraction stack it
does not run.

Usage, at the bottom of a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.graph.kernel": ("CSRGraph",),
        ...
    })
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str | tuple[str, str], ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``.

    ``exports`` maps each defining module (absolute name) to the names the
    package re-exports from it: a name, or a ``(name, attribute)`` pair for
    an attribute re-exported under another name.  A resolved name is stored
    in the package namespace, so each one costs a single ``__getattr__``
    call; an unknown name raises :class:`AttributeError` as for any module.
    """
    owner: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            name, attribute = (entry, entry) if isinstance(entry, str) else entry
            owner[name] = (module, attribute)
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), attribute)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__
