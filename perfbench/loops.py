"""The benchmark's three closed-loop workloads, their inputs and checks.

Every workload builds its own traces from the suite's generators with an
RNG derived from the benchmark seed, and hands the program only those
traces: as ``Trace`` objects to ``simulate`` (``grid``), or through a
fresh trace-cache directory where the program takes a benchmark name
(``campaign`` cells, ``mix`` members).

A window repeats one fixed pass of units, one unit at a time (closed
loop), for at least ``MIN_PASSES`` passes and until the requested
seconds are used up.  Each unit's time is its median over the passes,
which keeps a slow stretch of a shared host out of the figures.  The
exact simulated counts come from the first pass, so they repeat bit for
bit whatever the host speed.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import BENCHMARK_ORDER, PREFETCHERS, SUITE, Scale, SimulationConfig, Trace
from repro.backend.native import build as native_build
from repro.multicore import MIXES, mix_config
from repro.sim import parallel, runner
from repro.sim import store as store_mod
from repro.util.rng import make_rng
from repro.workloads import TraceBuilder, generate
from repro.workloads import io as trace_io

from ledger import Patches, Tracer

WORKLOADS = ("grid", "campaign", "mix")
MIN_PASSES = 3

#: one benchmark per sextile of Figure 1's memory-boundedness order.
GRID_BENCHMARKS = ("eon", "perlbmk", "apsi", "parser", "gcc", "mcf")
STANDARD = Scale.STANDARD.accesses
QUICK = Scale.QUICK.accesses
PREFETCHER_NAMES = tuple(PREFETCHERS)

#: the campaign's benchmarks: the quartile points of Figure 1's order
#: (fma3d, mesa, twolf, mcf), each crossed with every prefetcher.
CAMPAIGN_BENCHMARKS = tuple(BENCHMARK_ORDER[i] for i in (0, 8, 17, 25))
#: the mix ladder, low and high MPKI alternating, each mix under one of
#: the three prefetcher set-ups in turn.
MIX_ORDER = ("mix1", "mix7", "mix2", "mix6", "mix3", "mix5", "mix4")
MIX_CONFIGS = (("none", False), ("tcp-8k", False), ("tcp-8k", True))

#: the ``backend_fallback`` prefix of a native cell that ran on numpy.
NATIVE_MISSING = "native extension unavailable"
#: trace arrays compared when checking the program consumed our traces.
TRACE_ARRAYS = ("addrs", "pcs", "is_load", "gaps", "deps")


def pool_workers() -> int:
    """Worker processes for a pool: two, or fewer on a smaller host."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _span(tracer: Optional[Tracer], name: str, **attrs: Any):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Seeded inputs (the set-up every run pays)
# ----------------------------------------------------------------------


def seeded_trace(name: str, accesses: int, seed: int) -> Trace:
    """The suite benchmark ``name`` built with a seed-derived RNG."""
    spec = SUITE[name]
    builder = TraceBuilder(name, base_ipc=spec.base_ipc)
    spec.build(builder, make_rng(name, salt=seed), accesses)
    return builder.build()


def workload_inputs(workload: str) -> Tuple[Tuple[str, ...], int, bool]:
    """(benchmarks, accesses, written to the trace cache) per workload."""
    if workload == "grid":
        return GRID_BENCHMARKS, STANDARD, False
    if workload == "campaign":
        return CAMPAIGN_BENCHMARKS, QUICK, True
    members = dict.fromkeys(b for m in MIX_ORDER for b in MIXES[m].benchmarks)
    return tuple(members), QUICK, True


def set_up(
    workload: str, seed: int, cache_dir: Path, tracer: Optional[Tracer] = None
) -> Dict[str, Trace]:
    """Load the native extension and build (and cache) the seeded traces."""
    native_build.load()
    names, accesses, cached = workload_inputs(workload)
    traces = {}
    for name in names:
        with _span(tracer, "workloads.generate", benchmark=name):
            traces[name] = seeded_trace(name, accesses, seed)
        if cached:
            with _span(tracer, "workloads.trace_cache", benchmark=name):
                if trace_io.store_cached_trace(traces[name], name, accesses, cache_dir) is None:
                    raise OSError(f"could not write {name} to the trace cache {cache_dir}")
    return traces


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------


@dataclass
class Cell:
    """One simulated cell: its provenance row and its exact result."""

    key: Tuple
    pass_index: int
    row: Dict[str, Any]
    result: Any
    ok: bool


@dataclass
class Window:
    workload: str
    cells: List[Cell] = field(default_factory=list)
    #: per unit of the pass: simulated accesses, host ms of each pass.
    unit_accesses: Dict[Any, int] = field(default_factory=dict)
    unit_ms: Dict[Any, List[float]] = field(default_factory=dict)
    wall_s: float = 0.0
    passes: int = 0
    failures: List[str] = field(default_factory=list)
    #: campaign only: each pass's store root and report.
    stores: List[Path] = field(default_factory=list)
    reports: List[Any] = field(default_factory=list)

    def record(self, unit: Any, accesses: int, host_ms: float) -> None:
        self.unit_accesses[unit] = accesses
        self.unit_ms.setdefault(unit, []).append(host_ms)

    @property
    def accesses_per_s(self) -> float:
        """Accesses of one pass over the sum of per-unit median times."""
        median_ms = sum(statistics.median(ms) for ms in self.unit_ms.values())
        return sum(self.unit_accesses.values()) / median_ms * 1000.0

    def cell_ms(self) -> List[float]:
        """Each distinct cell's median host ms over the passes."""
        by_cell: Dict[Tuple, List[float]] = {}
        for cell in self.cells:
            by_cell.setdefault(cell.key, []).append(cell.row["host_ms"])
        return [statistics.median(ms) for ms in by_cell.values()]

    def first_pass(self) -> List[Cell]:
        return [cell for cell in self.cells if cell.pass_index == 0]


def _closed_loop(
    units: Sequence[Any],
    run_unit: Callable[[Any, int], None],
    seconds: float,
    window: Window,
) -> Window:
    """Run whole passes: at least ``MIN_PASSES``, then more while the
    next pass is expected to end within ``seconds``."""
    start = time.perf_counter()
    while True:
        for unit in units:
            run_unit(unit, window.passes)
        window.passes += 1
        elapsed = time.perf_counter() - start
        if window.passes >= MIN_PASSES and elapsed * (1 + 1 / window.passes) > seconds:
            break
    window.wall_s = time.perf_counter() - start
    return window


def _validates(result: Any, label: str, window: Window) -> bool:
    try:
        result.validate()
    except ValueError as exc:
        window.failures.append(f"{label}: validate() failed: {exc}")
        return False
    return True


def grid_units() -> List[Tuple[str, str]]:
    """Every prefetcher once; prefetcher i runs benchmark i mod 6, so the
    pass covers all six benchmarks and both reference-loop fallbacks."""
    width = len(GRID_BENCHMARKS)
    return [(GRID_BENCHMARKS[i % width], p) for i, p in enumerate(PREFETCHER_NAMES)]


def grid_config(prefetcher: str, backend: str = "native") -> SimulationConfig:
    return replace(SimulationConfig.for_prefetcher(prefetcher), backend=backend)


def run_grid(traces: Dict[str, Trace], seconds: float) -> Window:
    window = Window("grid")

    def run_unit(unit: Tuple[str, str], pass_index: int) -> None:
        benchmark, prefetcher = unit
        start = time.perf_counter()
        result = runner.simulate(traces[benchmark], grid_config(prefetcher))
        host_ms = (time.perf_counter() - start) * 1000.0
        fallback = result.backend_fallback
        ok = _validates(result, f"grid {benchmark}/{prefetcher}", window)
        if fallback is not None and fallback.startswith(NATIVE_MISSING):
            window.failures.append(f"grid {benchmark}/{prefetcher}: ran on numpy ({fallback})")
            ok = False
        accesses = len(traces[benchmark])
        window.record(unit, accesses, host_ms)
        row = {
            "workload": "grid", "benchmark": benchmark, "prefetcher": prefetcher,
            "backend": "native", "fallback": fallback, "accesses": accesses,
            "host_ms": host_ms, "ipc": result.ipc,
        }
        window.cells.append(Cell(unit, pass_index, row, result, ok))

    return _closed_loop(grid_units(), run_unit, seconds, window)


def campaign_configs() -> List[SimulationConfig]:
    return [grid_config(name, backend="python") for name in PREFETCHER_NAMES]


def _timed_cell(original: Callable) -> Callable:
    """Wrap the campaign's per-cell ``simulate`` to carry its host time
    back on the result (an instance attribute, pickled with it)."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = original(*args, **kwargs)
        result.perfbench_ms = (time.perf_counter() - start) * 1000.0
        return result

    return wrapper


def run_campaign(
    traces: Dict[str, Trace], seconds: float, cache_dir: Path, store_root: Path
) -> Window:
    """Each pass is one campaign: a ``prewarm`` of every prefetcher on
    the campaign benchmarks into a fresh store, from an empty cache."""
    window = Window("campaign")
    configs = campaign_configs()
    accesses = len(configs) * sum(len(traces[b]) for b in CAMPAIGN_BENCHMARKS)

    def run_unit(benchmarks: Tuple[str, ...], pass_index: int) -> None:
        runner.clear_cache()
        root = store_root / f"pass{pass_index}"
        window.stores.append(root)
        start = time.perf_counter()
        with store_mod.use_store(store_mod.ResultStore(root)):
            report = parallel.prewarm(
                configs, QUICK, benchmarks=benchmarks, jobs=pool_workers(),
                trace_cache=str(cache_dir),
            )
        window.record(benchmarks, accesses, (time.perf_counter() - start) * 1000.0)
        window.reports.append(report)
        for failure in report.failures:
            window.failures.append(f"campaign {failure.describe()}")
        for benchmark in benchmarks:
            for config in configs:
                result = report.completed.get(f"{benchmark}/{config.prefetcher}@{QUICK}")
                if result is None:
                    continue
                row = {
                    "workload": "campaign", "benchmark": benchmark,
                    "prefetcher": config.prefetcher, "backend": "python",
                    "fallback": result.backend_fallback,
                    "accesses": len(traces[benchmark]),
                    "host_ms": result.perfbench_ms, "ipc": result.ipc,
                }
                key = (benchmark, config.prefetcher)
                window.cells.append(Cell(key, pass_index, row, result, True))

    patches = Patches()
    patches.replace(parallel, "simulate", _timed_cell)
    try:
        return _closed_loop([CAMPAIGN_BENCHMARKS], run_unit, seconds, window)
    finally:
        patches.restore()


def resume_campaign(window: Window, tracer: Optional[Tracer]) -> Dict[str, int]:
    """Reopen each pass's store and re-run it: nothing may execute, and
    every stored result must equal that pass's cold result."""
    configs = campaign_configs()
    counts = {"executed": 0, "skipped": 0}
    with _span(tracer, "campaign.resume"):
        for pass_index, root in enumerate(window.stores):
            cold = {c.key: c.result for c in window.cells if c.pass_index == pass_index}
            runner.clear_cache()
            with _span(tracer, "store.open"):
                store = store_mod.ResultStore(root)
                len(store)
            with store_mod.use_store(store):
                report = parallel.prewarm(
                    configs, QUICK, benchmarks=CAMPAIGN_BENCHMARKS, jobs=pool_workers()
                )
            counts["executed"] += report.executed
            counts["skipped"] += report.skipped
            for (benchmark, prefetcher), expected in cold.items():
                stored = store.get(benchmark, QUICK, grid_config(prefetcher, "python"))
                if stored is None or stored != expected:
                    window.failures.append(
                        f"campaign resume {benchmark}/{prefetcher}: "
                        "stored result differs from the cold pass"
                    )
    if counts["executed"]:
        window.failures.append(
            f"campaign resume executed {counts['executed']} cell(s); expected 0"
        )
    return counts


def mix_units() -> List[Tuple[str, str, bool]]:
    return [
        (mix, *MIX_CONFIGS[i % len(MIX_CONFIGS)]) for i, mix in enumerate(MIX_ORDER)
    ]


def run_mix(traces: Dict[str, Trace], seconds: float, cache_dir: Path) -> Window:
    window = Window("mix")
    first: Dict[Tuple[str, str, bool], Any] = {}

    def run_unit(unit: Tuple[str, str, bool], pass_index: int) -> None:
        mix, prefetcher, shared = unit
        spec = MIXES[mix]
        config = mix_config(spec, prefetcher=prefetcher, shared_pht=shared)
        start = time.perf_counter()
        result = runner.simulate(spec.canonical, config, QUICK, use_cache=False)
        host_ms = (time.perf_counter() - start) * 1000.0
        ok = _validates(result, f"mix {mix}/{prefetcher}", window)
        earlier = first.setdefault(unit, result)
        if earlier is not result and earlier.to_dict() != result.to_dict():
            window.failures.append(f"mix {unit}: repeat differs from the first pass")
            ok = False
        accesses = sum(len(traces[b]) for b in spec.benchmarks)
        window.record(unit, accesses, host_ms)
        row = {
            "workload": "mix", "mix": mix, "members": list(spec.benchmarks),
            "prefetcher": prefetcher, "shared_pht": shared, "backend": "python",
            "fallback": result.backend_fallback, "accesses": accesses,
            "host_ms": host_ms, "ipc": result.ipc,
        }
        window.cells.append(Cell(unit, pass_index, row, result, ok))

    with trace_io.trace_cache_scope(cache_dir):
        return _closed_loop(mix_units(), run_unit, seconds, window)


def run_window(
    workload: str, traces: Dict[str, Trace], seconds: float, cache_dir: Path, work: Path
) -> Window:
    store_mod.set_active_store(None)
    if workload == "grid":
        return run_grid(traces, seconds)
    if workload == "campaign":
        return run_campaign(traces, seconds, cache_dir, work / "store")
    return run_mix(traces, seconds, cache_dir)


# ----------------------------------------------------------------------
# Output checks (outside the timed window)
# ----------------------------------------------------------------------


def python_reference(benchmark: str, prefetcher: str, seed: int) -> Any:
    """The python backend's result for one grid cell, from scratch."""
    trace = seeded_trace(benchmark, STANDARD, seed)
    return runner.simulate(trace, grid_config(prefetcher, "python"))


def check_grid_reference(window: Window, seed: int) -> int:
    """Every first-pass grid cell must equal the python reference on the
    same trace, bit for bit.  The references run in a small process pool
    after the timed passes.  Returns the number of cells checked."""
    cells = window.first_pass()
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=pool_workers(), mp_context=context) as pool:
        futures = [
            pool.submit(python_reference, *cell.key, seed) for cell in cells
        ]
        references = [future.result() for future in futures]
    for cell, reference in zip(cells, references):
        if reference != cell.result:
            benchmark, prefetcher = cell.key
            window.failures.append(
                f"grid {benchmark}/{prefetcher}: native differs from the python reference"
            )
    return len(cells)


def check_campaign_reference(window: Window, traces: Dict[str, Trace]) -> None:
    """The first pass's ``none`` cells must equal an in-process python
    run of the seeded trace (so the pool consumed the traces we built)."""
    for cell in window.first_pass():
        benchmark, prefetcher = cell.key
        if prefetcher == "none":
            reference = runner.simulate(traces[benchmark], grid_config("none", "python"))
            if reference != cell.result:
                window.failures.append(
                    f"campaign {benchmark}/none: differs from the in-process reference"
                )


def check_traces_consumed(window: Window, traces: Dict[str, Trace]) -> None:
    """The program's own lookup of each trace (its in-process cache,
    filled while the window ran) must return exactly our seeded trace."""
    _, accesses, _ = workload_inputs(window.workload)
    for name, ours in traces.items():
        theirs = generate(name, accesses)
        if not all(np.array_equal(getattr(ours, a), getattr(theirs, a)) for a in TRACE_ARRAYS):
            window.failures.append(f"{window.workload}: the program did not run our {name} trace")


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (exclusive method, as ``statistics``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def tcp8k_gain_pct(window: Window, traces: Dict[str, Trace]) -> float:
    """Geomean IPC gain of tcp-8k over none over the six grid benchmarks.

    Cells the window did not run are simulated here, so the figure is
    always over the same twelve cells and repeats exactly.
    """
    ipc = {cell.key: cell.result.ipc for cell in window.cells}
    ratios = []
    for benchmark in GRID_BENCHMARKS:
        pair = []
        for prefetcher in ("none", "tcp-8k"):
            key = (benchmark, prefetcher)
            if key not in ipc:
                ipc[key] = runner.simulate(traces[benchmark], grid_config(prefetcher)).ipc
            pair.append(ipc[key])
        ratios.append(pair[1] / pair[0])
    return (math.exp(sum(math.log(r) for r in ratios) / len(ratios)) - 1.0) * 100.0


def write_rows(path: Path, window: Window, label: str) -> None:
    """Append one provenance row per simulated cell."""
    with path.open("a", encoding="utf-8") as handle:
        for cell in window.cells:
            row = dict(cell.row, window=label, pass_index=cell.pass_index, ok=cell.ok)
            handle.write(json.dumps(row) + "\n")
