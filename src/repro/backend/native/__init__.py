"""The compiled backend (``--backend native``).

:class:`NativeBackend` routes a run to :class:`~repro.backend.native.
engine.NativeCore`, which steps the whole trace in C
(:mod:`repro.backend.native._native`): every access, hits included, and
the training of every ``PREFETCHERS`` entry.  The engine degrades
loudly but gracefully, in two tiers:

* configurations the C engine cannot represent fall back to the
  reference interpreted loop: a set-associative L1D, a direct-mapped
  L2, and access-stream observers or gated promotions other than the
  exact :class:`~repro.prefetchers.dbcp.DeadBlockCorrelatingPrefetcher`
  and :class:`~repro.core.hybrid.HybridTCP` (a subclass may override a
  hook the C engine never calls);
* when the ``_native`` extension cannot be imported or built (no C
  compiler, ``REPRO_NATIVE=0``, a failed compile), the run falls back
  to the numpy batch engine, so a pure-Python install keeps working
  everywhere at numpy speed — except for the configurations the numpy
  engine cannot model either (DBCP, the hybrid), which go to the
  reference loop.

Other prefetcher subclasses and unknown prefetcher types run compiled
too, training through a Python ``observe_miss`` callback.  Every
fallback warns once per process and records the reason in
``last_engine_stats["fallback"]``, which the runner copies into
``SimResult.backend_fallback``.  Either way results are bit-identical
to the python backend; fallbacks only cost speed, never correctness.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Set

from repro.backend.base import Backend
from repro.backend.native import build
from repro.backend.native.engine import NativeCore, _fallback_reason
from repro.backend.vector import VectorCore
from repro.backend.vector import _fallback_reason as _numpy_fallback_reason
from repro.cpu.core import CoreParams, CoreResult, OutOfOrderCore
from repro.engine.probes import Probe
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["NativeBackend", "NativeCore"]

#: fallback reasons already warned about (once per process, not per run).
_WARNED_FALLBACKS: Set[str] = set()


def _warn_once(reason: str, target: str) -> None:
    if reason in _WARNED_FALLBACKS:
        return
    _WARNED_FALLBACKS.add(reason)
    warnings.warn(
        f"native backend: {reason}; this configuration runs on the "
        f"(bit-identical) {target}",
        RuntimeWarning,
        stacklevel=3,
    )


class NativeBackend(Backend):
    """The compiled engine: the whole trace stepped in C."""

    name = "native"

    def __init__(self) -> None:
        #: engine accounting for the last run: NativeCore.engine_stats
        #: when the compiled path ran; the numpy engine's stats plus a
        #: ``fallback`` reason when the extension was unavailable; or
        #: ``{"fallback": reason}`` for runs on the reference loop.
        self.last_engine_stats: dict = {}

    def _reference(
        self, reason, trace, hierarchy, params, warmup, probes
    ) -> CoreResult:
        _warn_once(reason, "python reference loop")
        self.last_engine_stats = {"fallback": reason}
        core = OutOfOrderCore(params)
        return core.run(trace, hierarchy, warmup=warmup, probes=probes)

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        params: CoreParams,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        reason = _fallback_reason(hierarchy)
        if reason is not None:
            return self._reference(reason, trace, hierarchy, params, warmup, probes)
        if build.load() is None:
            reason = f"native extension unavailable ({build.load_error()})"
            numpy_reason = _numpy_fallback_reason(hierarchy)
            if numpy_reason is not None:
                return self._reference(
                    f"{reason}; numpy cannot model {numpy_reason}",
                    trace, hierarchy, params, warmup, probes,
                )
            _warn_once(reason, "numpy batch engine")
            core = VectorCore(params)
            result = core.run(trace, hierarchy, warmup=warmup, probes=probes)
            self.last_engine_stats = dict(core.engine_stats)
            self.last_engine_stats["fallback"] = reason
            return result
        core = NativeCore(params)
        result = core.run(trace, hierarchy, warmup=warmup, probes=probes)
        self.last_engine_stats = core.engine_stats
        return result
