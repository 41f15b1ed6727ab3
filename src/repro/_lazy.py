"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that only re-exports names from its submodules declares where
each name lives; the submodule is imported on the first attribute access,
not when the package is.  So ``import repro.graph.snapshot_store`` loads
that module and the package shell only, and a warm ``repro analyze`` —
which reopens an mmap'd snapshot — never imports the extraction stack it
does not run.

Usage, at the bottom of a package ``__init__`` (the table's keys, in order,
are the package's ``__all__``)::

    __all__, __getattr__, __dir__ = lazy_exports(
        globals(),
        {
            "CSRGraph": "repro.graph.kernel",
            "parse_query": ("repro.dsl.parser", "parse"),
            ...
        },
    )
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, str | tuple[str, str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, module-level ``__getattr__`` and ``__dir__`` of the
    package whose globals are ``namespace``.

    ``exports`` maps each exported name, in ``__all__`` order, to its
    defining module (absolute name), or to a ``(module, attribute)`` pair
    for an attribute re-exported under another name.  A resolved name is
    stored in the package namespace, so each one costs a single
    ``__getattr__`` call; an unknown name raises :class:`AttributeError` as
    for any module.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module, attribute = (target, name) if isinstance(target, str) else target
        value = getattr(import_module(module), attribute)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return list(exports), __getattr__, __dir__
