"""Pluggable kernel backends for the CSR execution layer.

The paper's thesis is that analytics speed is decided by the in-memory
representation the extracted graph runs on.  PR 1 froze that representation
into flat ``array('q')`` CSR snapshots and PR 2 made them mmap-able files;
this package makes the *execution strategy over those arrays* pluggable:

* :class:`PythonBackend` (``"python"``) — the reference backend.  Pure-Python
  loop kernels, unchanged from the pre-backend algorithm modules, and
  therefore bit-for-bit identical to them.  It is the determinism anchor:
  every other backend is validated against it.
* ``NumpyBackend`` (``"numpy"``) — vectorised kernels over zero-copy
  ``np.int64`` views of the snapshot arrays (``np.frombuffer`` over the
  ``array('q')`` buffers, or over the ``"q"``-cast memoryviews of an
  mmap-loaded snapshot file — no copies either way).  Available only when
  NumPy is importable; see :mod:`repro.graph.backend.numpy_backend`.

Tolerance contract
------------------
Integer-valued kernels (degrees, BFS, components, k-core, triangles, label
propagation) must return results **exactly equal** to the reference
backend.  Float-valued kernels (PageRank, closeness, betweenness,
clustering) may differ from the reference by at most ``1e-9`` L-infinity:
vectorised reductions re-associate floating-point sums, which perturbs
low-order bits only.  Neighborhood-similarity scores (common neighbors,
Jaccard, Adamic–Adar, preferential attachment) are not backend kernels:
:mod:`repro.algorithms.similarity` computes them one way on every backend.

Selection
---------
:func:`get_backend` resolves, in order:

1. an explicit ``name`` argument,
2. the process-wide override installed by :func:`set_default_backend`
   (used by the CLI's ``analyze --backend``),
3. the ``REPRO_KERNEL_BACKEND`` environment variable,
4. ``"auto"`` — the NumPy backend when importable, else the reference.

``"numpy"`` requested explicitly without NumPy installed is a
:class:`~repro.exceptions.UsageError`; ``"auto"`` silently falls back.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.exceptions import UsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.backend.python_backend import KernelBackend

#: environment variable consulted by :func:`get_backend`
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

BACKEND_NAMES = ("python", "numpy", "auto")

#: process-wide override (None = defer to the environment / auto)
_default_spec: str | None = None

_instances: dict[str, "KernelBackend"] = {}


def numpy_available() -> bool:
    """True if the NumPy backend can be constructed in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - exercised via monkeypatched spec
        return False
    return True


def _instance(name: str) -> "KernelBackend":
    backend = _instances.get(name)
    if backend is None:
        if name == "python":
            from repro.graph.backend.python_backend import PythonBackend

            backend = PythonBackend()
        else:
            from repro.graph.backend.numpy_backend import NumpyBackend

            backend = NumpyBackend()
        _instances[name] = backend
    return backend


def get_backend(name: str | None = None) -> "KernelBackend":
    """Resolve a kernel backend by name (see module docstring for the order).

    Raises :class:`~repro.exceptions.UsageError` for unknown names and for an
    explicit ``"numpy"`` request when NumPy is not importable.
    """
    spec = name if name is not None else _default_spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "auto"
    spec = spec.strip().lower()
    if spec == "auto":
        return _instance("numpy" if numpy_available() else "python")
    if spec == "python":
        return _instance("python")
    if spec == "numpy":
        if not numpy_available():
            raise UsageError(
                "kernel backend 'numpy' was requested but numpy is not "
                "importable; install numpy or select 'python' / 'auto'"
            )
        return _instance("numpy")
    raise UsageError(
        f"unknown kernel backend {spec!r}: expected one of {', '.join(BACKEND_NAMES)}"
    )


def set_default_backend(name: str | None) -> str | None:
    """Install a process-wide backend override; returns the previous one.

    ``None`` clears the override (environment / auto resolution resumes).
    The name is validated eagerly so misconfiguration fails at selection
    time, not at the first algorithm call.
    """
    global _default_spec
    if name is not None:
        get_backend(name)  # validate
    previous = _default_spec
    _default_spec = name
    return previous
