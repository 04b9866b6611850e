"""Pluggable simulation backends.

The per-access state machines run behind the :class:`~repro.backend.
base.Backend` interface; :func:`resolve_backend` picks the
implementation for a run from ``SimulationConfig.backend``, the
``REPRO_BACKEND`` environment variable, or the default:

``python``
    the reference interpreted loop (:mod:`repro.cpu.core` +
    :mod:`repro.memory` — the PR 3 engine path, frozen by the golden
    corpus and the 156-run oracle);
``numpy``
    the batch-stepping engine (:mod:`repro.backend.vector`): trace
    planes precomputed as ndarrays, hit runs stepped in batches, a
    scalar epilogue for misses/prefetch/MSHR events — bit-identical to
    ``python`` by contract and by differential test.
``native``
    the whole trace stepped in C, with every ``PREFETCHERS`` entry
    trained in C (:mod:`repro.backend.native`); requires the
    ``_native`` extension (built on demand, or via ``pip install
    .[native]``) and falls back to ``numpy`` (or, for what numpy cannot
    model, the reference loop) with a once-per-process warning when it
    is missing.
"""

from __future__ import annotations

from repro.backend.base import (
    BACKEND_ENV,
    Backend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.native import NativeBackend
from repro.backend.python import PythonBackend
from repro.backend.vector import NumpyBackend

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "NativeBackend",
    "NumpyBackend",
    "PythonBackend",
    "available_backends",
    "backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

register_backend("python", PythonBackend)
register_backend("numpy", NumpyBackend)
register_backend("native", NativeBackend)
