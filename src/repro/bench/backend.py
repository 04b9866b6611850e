"""The backend benchmark: pit simulation backends against each other.

For every (workload, prefetcher) pair the benchmark runs the same
trace under the ``python`` reference backend and under each contender
backend (by default ``numpy`` plus, when the compiled extension is
available, ``native``) — each on a cold machine, taking the best of
``repeats`` timed runs.  Every arm must commit exactly the same cycles
and hierarchy statistics (enforced here and by
``benchmarks/test_backend_perf.py``); the throughput ratios are the
backend layer's speedups.  Like the hot-path bench, the ratios compare
arms timed on the same interpreter and host, so they are comparable
across machines even though raw accesses/sec are not.

Methodology notes:

* Arms share one trace object, so the numpy engine's per-trace plane
  cache (:mod:`repro.backend.vector.engine`) is warm after the first
  repeat — the reported number is steady-state throughput, matching
  how campaigns re-simulate one trace under many configurations.
* Each numpy cell records the batch coverage (the fraction of accesses
  stepped in batches).  Coverage is the speedup's ceiling: accesses
  outside a batch run through the scalar epilogue.  The ``native``
  engine steps every access in C, so its coverage is null.
* The ``native`` engine times its C loop internally
  (``engine_stats["epilogue_ns"]``), so its cells also report the
  split between time inside the loop (``epilogue_seconds``) and the
  rest of the run (``batch_seconds``: plane build, boundary syncs,
  set-up).  The numpy engine's epilogue is interleaved Python and not
  separately clocked, so its split is null.

The result is written to ``BENCH_backend.json``; the committed copy at
the repository root is the baseline the CI backend-parity job compares
against.

Schema history: v1 had a single hard-wired contender with flat
``speedup``/``batch_coverage`` keys per row; v2 nests one record per
contender under ``contenders`` and adds the wall-time split.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.backend import available_backends, get_backend
from repro.memory import MemoryHierarchy
from repro.sim.config import SimulationConfig
from repro.workloads import Scale, Trace, generate

__all__ = [
    "DEFAULT_PREFETCHERS",
    "DEFAULT_WORKLOADS",
    "SCHEMA",
    "default_contenders",
    "run_backend_bench",
]

#: schema tag embedded in every result file (bump on layout changes).
SCHEMA = "repro-tcp/backend-bench/v2"

#: the fig11-mix defaults, matching the hot-path bench: a dense-stride
#: scientific workload, a pointer-chasing memory-bound one, and an
#: irregular instruction-heavy one, each under no prefetcher, the
#: next-line baseline, and the paper's TCP-8K.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("swim", "mcf", "gcc")
DEFAULT_PREFETCHERS: Tuple[str, ...] = ("none", "nextline", "tcp-8k")


def default_contenders() -> Tuple[str, ...]:
    """The arms to pit against the reference on this host: ``numpy``
    always, plus ``native`` when the compiled extension loads (a
    native arm that silently fell back to numpy would just time numpy
    twice and report a misleading three-way comparison)."""
    from repro.backend.native import build

    if build.load() is not None:
        return ("numpy", "native")
    return ("numpy",)


def _check_backend_name(role: str, name: str) -> None:
    if name not in available_backends():
        registered = ", ".join(available_backends())
        raise ValueError(
            f"unknown {role} backend {name!r} "
            f"(registered backends: {registered})"
        )


def _time_backend(
    backend_name: str, trace: Trace, config: SimulationConfig
):
    """One cold run under ``backend_name``; returns (seconds, result,
    hierarchy, engine_stats)."""
    backend = get_backend(backend_name)
    hierarchy = MemoryHierarchy(config.hierarchy)
    hierarchy.attach_prefetcher(config.build_prefetcher())
    started = time.perf_counter()
    result = backend.run(trace, hierarchy, config.core)
    elapsed = time.perf_counter() - started
    stats = dict(getattr(backend, "last_engine_stats", None) or {})
    return elapsed, result, hierarchy, stats


def _best_of(runs: int, backend_name: str, trace: Trace, config: SimulationConfig):
    """Fastest of ``runs`` cold runs (best-of, not mean-of: scheduling
    noise only ever adds time).  The engine stats reported are the
    winning run's, so per-run clocks (the native epilogue split) match
    the elapsed time they are reported against."""
    best = float("inf")
    result = hierarchy = None
    stats: Dict[str, object] = {}
    for _ in range(runs):
        elapsed, run_res, run_hier, run_stats = _time_backend(
            backend_name, trace, config
        )
        if elapsed < best:
            best, result, hierarchy, stats = elapsed, run_res, run_hier, run_stats
    return best, result, hierarchy, stats


def _geomean(values: Sequence[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def run_backend_bench(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    prefetchers: Sequence[str] = DEFAULT_PREFETCHERS,
    scale: Scale = Scale.STANDARD,
    repeats: int = 3,
    baseline: str = "python",
    contenders: Optional[Sequence[str]] = None,
    output: Optional[str] = None,
    log: Optional[TextIO] = None,
) -> Dict[str, object]:
    """Run the backend benchmark; return (and optionally write) results.

    Parameters
    ----------
    workloads, prefetchers:
        The (workload, prefetcher) grid to time.
    scale:
        Trace length per run (``Scale.STANDARD`` = 120 000 accesses).
    repeats:
        Timed runs per cell per backend; the fastest is reported.
    baseline:
        The reference arm every contender is compared against
        (default: the ``python`` interpreted loop).
    contenders:
        Backend names to pit against the baseline.  Default:
        :func:`default_contenders` — ``numpy`` plus ``native`` when
        the compiled extension is available on this host.
    output:
        Path to write the JSON document to (``BENCH_backend.json``).
    log:
        Stream for one progress line per cell and arm
        (e.g. ``sys.stdout``).
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if contenders is None:
        contenders = default_contenders()
    contenders = tuple(contenders)
    if not contenders:
        raise ValueError("need at least one contender backend")
    _check_backend_name("baseline", baseline)
    for name in contenders:
        _check_backend_name("contender", name)
        if name == baseline:
            raise ValueError(f"contender {name!r} is the baseline")

    results: List[Dict[str, object]] = []
    for workload in workloads:
        trace = generate(workload, scale)
        accesses = len(trace)
        for pf_name in prefetchers:
            config = SimulationConfig.for_prefetcher(pf_name)
            base_s, base_res, base_hier, _ = _best_of(
                repeats, baseline, trace, config
            )
            entry: Dict[str, object] = {
                "workload": workload,
                "prefetcher": pf_name,
                "accesses": accesses,
                f"{baseline}_accesses_per_sec": accesses / base_s,
                "cycles": base_res.cycles,
                "contenders": {},
            }
            for cont in contenders:
                cont_s, cont_res, cont_hier, engine_stats = _best_of(
                    repeats, cont, trace, config
                )
                if base_res.cycles != cont_res.cycles:
                    raise RuntimeError(
                        f"backend divergence on {workload}/{pf_name}: "
                        f"{baseline} committed {base_res.cycles!r} cycles, "
                        f"{cont} {cont_res.cycles!r}"
                    )
                if base_hier.stats != cont_hier.stats:
                    raise RuntimeError(
                        f"backend divergence on {workload}/{pf_name}: "
                        f"hierarchy statistics differ between {baseline} "
                        f"and {cont}"
                    )
                batched = engine_stats.get("batched_accesses")
                coverage = (
                    batched / accesses if isinstance(batched, int) else None
                )
                epilogue_ns = engine_stats.get("epilogue_ns")
                if isinstance(epilogue_ns, int):
                    epilogue_s: Optional[float] = epilogue_ns / 1e9
                    batch_s: Optional[float] = max(cont_s - epilogue_s, 0.0)
                else:
                    epilogue_s = batch_s = None
                arm: Dict[str, object] = {
                    "accesses_per_sec": accesses / cont_s,
                    "speedup": base_s / cont_s,
                    "batch_coverage": coverage,
                    "fallback": engine_stats.get("fallback"),
                    "batch_seconds": batch_s,
                    "epilogue_seconds": epilogue_s,
                }
                entry["contenders"][cont] = arm  # type: ignore[index]
                if log is not None:
                    cov = f"{coverage:.0%}" if coverage is not None else "n/a"
                    split = (
                        f", epilogue {epilogue_s / cont_s:.0%} of wall"
                        if epilogue_s is not None and cont_s > 0
                        else ""
                    )
                    log.write(
                        f"{workload:8s} {pf_name:10s} {cont:6s} "
                        f"{arm['accesses_per_sec']:10.0f} acc/s  "
                        f"({baseline} "
                        f"{entry[f'{baseline}_accesses_per_sec']:10.0f}, "
                        f"speedup {arm['speedup']:.2f}x, batched {cov}"
                        f"{split})\n"
                    )
                    log.flush()
            results.append(entry)

    speedups_by_contender: Dict[str, Dict[str, float]] = {}
    for cont in contenders:
        values = [
            entry["contenders"][cont]["speedup"]  # type: ignore[index]
            for entry in results
        ]
        speedups_by_contender[cont] = {
            "geomean_speedup": _geomean(values),
            "min_speedup": min(values) if values else 0.0,
        }
    # The headline arm: the last contender (native when available).
    # The legacy top-level geomean/min keys mirror it so v1 consumers
    # of the summary line keep working.
    primary = contenders[-1]
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "scale": scale.name.lower(),
        "repeats": repeats,
        "baseline_backend": baseline,
        "contender_backends": list(contenders),
        "primary_contender": primary,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": results,
        "speedups": speedups_by_contender,
        "geomean_speedup": speedups_by_contender[primary]["geomean_speedup"],
        "min_speedup": speedups_by_contender[primary]["min_speedup"],
    }
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return document
