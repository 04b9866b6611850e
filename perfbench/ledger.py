"""Span tracing from the benchmark's side, and the per-layer ledger.

The traced run wraps the program's public entry points from here, so
the program itself carries no tracing for the benchmark.  Spans live in
memory with a parent link.  Pool workers are forked from the traced
process and inherit the wrappers; each worker appends its spans to a
per-process file when its top-level span (one campaign cell) closes,
and the parent merges those files at the end.

:func:`per_layer` turns the spans plus the workload's exact simulated
results into the named per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: per-layer metrics in ``BENCHMARK.json`` order: name -> unit.
PER_LAYER = {
    "workloads.generate_ms": "ms",
    "workloads.trace_cache_ms": "ms",
    "backend.run_ms.native": "ms",
    "backend.run_ms.fallback": "ms",
    "backend.run_ms.python": "ms",
    "backend.cells.native": "count",
    "backend.cells.python": "count",
    "backend.cells.fallback.access_stream": "count",
    "backend.cells.fallback.gated_promotions": "count",
    "backend.cells.fallback.other": "count",
    "backend.ns_per_access.native": "ns",
    "backend.ns_per_access.fallback": "ns",
    "backend.ns_per_access.python": "ns",
    "backend.ns_per_l1_miss": "ns",
    "sim.simulate_ms": "ms",
    "sim.self_ms": "ms",
    "sim.validate_ms": "ms",
    "store.put_ms": "ms",
    "store.puts": "count",
    "store.log_bytes": "bytes",
    "store.open_ms": "ms",
    "store.resume_ms": "ms",
    "campaign.wall_s": "s",
    "campaign.busy_s": "s",
    "campaign.overhead_ms_per_cell": "ms",
    "campaign.executed": "count",
    "campaign.skipped": "count",
    "campaign.retried": "count",
    "campaign.recycled": "count",
    "campaign.failed": "count",
    "multicore.cell_ms_p50": "ms",
    "multicore.bus_stall_cycles": "cycles",
    "multicore.cross_core_evictions": "count",
    "memory.l1_misses": "count",
    "memory.l2_demand_misses": "count",
    "memory.mshr_merges": "count",
    "memory.mshr_full_stalls": "count",
    "prefetchers.issued": "count",
    "prefetchers.useful": "count",
    "prefetchers.accuracy": "ratio",
    "model.tcp8k_gain_pct": "%",
    "obs.trace_overhead_pct": "%",
    "cells_timed": "count",
}

#: backend fallback reasons (``SimResult.backend_fallback``) by slug.
FALLBACK_SLUGS = {
    "prefetcher observes the access stream": "access_stream",
    "gated L1 promotions": "gated_promotions",
}


class Tracer:
    """In-memory span recorder with parent links."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.owner = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._count = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with a copy of the parent's spans;
        # they are the parent's to write, not this worker's.
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        self._count += 1
        span_id = f"{os.getpid()}:{self._count}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "pid": os.getpid(),
                    "start_ns": start,
                    "end_ns": end,
                    "attrs": attrs,
                }
            )
            if not self._stack and os.getpid() != self.owner:
                self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self) -> List[Dict[str, Any]]:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


class Patches:
    """Wrappers installed on the program's public entry points."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, wrapper_factory: Callable) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(tracer: Tracer, name: str, after: Optional[Callable] = None):
    """Factory: wrap a callable in a span; ``after`` may add attributes."""

    def factory(original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
                return result

        return wrapper

    return factory


def _backend_attrs(attrs: Dict[str, Any], args: tuple, _result: Any) -> None:
    backend, trace, hierarchy = args[0], args[1], args[2]
    attrs["backend"] = backend.name
    attrs["fallback"] = (getattr(backend, "last_engine_stats", None) or {}).get(
        "fallback"
    )
    attrs["accesses"] = len(trace)
    attrs["l1_misses"] = hierarchy.stats.l1_misses


def _simulate_attrs(site: str) -> Callable:
    def after(attrs: Dict[str, Any], args: tuple, _result: Any) -> None:
        config = args[1]
        attrs["site"] = site
        attrs["mix"] = config.mix is not None

    return after


def install(tracer: Tracer) -> Patches:
    """Wrap the layer entry points the ledger reads; returns the undo."""
    from repro.backend import available_backends, get_backend
    from repro.multicore import results as mc_results
    from repro.multicore import runner as mc_runner
    from repro.sim import parallel, runner, store
    from repro.sim.results import SimResult

    patches = Patches()
    patches.replace(
        runner, "simulate", _spanned(tracer, "sim.simulate", _simulate_attrs("serial"))
    )
    patches.replace(
        parallel,
        "simulate",
        _spanned(tracer, "sim.simulate", _simulate_attrs("campaign")),
    )
    patches.replace(parallel, "prewarm", _spanned(tracer, "campaign.prewarm"))
    patches.replace(parallel, "cache_trace", _spanned(tracer, "workloads.trace_cache"))
    patches.replace(runner, "generate", _spanned(tracer, "workloads.generate"))
    patches.replace(mc_runner, "generate", _spanned(tracer, "workloads.generate"))
    for backend_cls in {type(get_backend(name)) for name in available_backends()}:
        patches.replace(
            backend_cls, "run", _spanned(tracer, "backend.run", _backend_attrs)
        )
    patches.replace(SimResult, "validate", _spanned(tracer, "sim.validate"))
    patches.replace(mc_results.MixResult, "validate", _spanned(tracer, "sim.validate"))
    patches.replace(store.ResultStore, "put", _spanned(tracer, "store.put"))
    return patches


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per span name: total self time in ms (duration minus children).

    Children of one span run sequentially in its process, so their
    durations are subtracted as-is.
    """
    child_ns: Dict[str, int] = {}
    for span in spans:
        if span["parent"] is not None:
            duration = span["end_ns"] - span["start_ns"]
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + duration
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - child_ns.get(span["id"], 0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + _ms(own)
    return totals


def _total_ms(spans: List[Dict[str, Any]], name: str) -> float:
    return sum(_ms(s["end_ns"] - s["start_ns"]) for s in spans if s["name"] == name)


def _memory_counts(results: List[Any]) -> Dict[str, float]:
    """Exact simulated counts summed over results (mix: over cores)."""
    stats = []
    for result in results:
        per_core = getattr(result, "per_core", None)
        if per_core is None:
            stats.append(result.memory)
        else:
            stats.extend(core.memory for core in per_core)
    issued = sum(m.prefetches_issued for m in stats)
    useful = sum(m.useful_prefetches for m in stats)
    return {
        "memory.l1_misses": sum(m.l1_misses for m in stats),
        "memory.l2_demand_misses": sum(m.l2_demand_misses for m in stats),
        "memory.mshr_merges": sum(m.mshr_merges for m in stats),
        "memory.mshr_full_stalls": sum(m.mshr_full_stalls for m in stats),
        "prefetchers.issued": issued,
        "prefetchers.useful": useful,
        "prefetchers.accuracy": useful / issued if issued else 0.0,
    }


def per_layer(
    spans: List[Dict[str, Any]], window: Dict[str, Any], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric (0 where the workload skips the layer).

    ``window`` is the traced window's summary from :mod:`loops`;
    ``extra`` holds metrics computed outside the spans (the model gain,
    the trace overhead, campaign counts).
    """
    values = {name: 0.0 for name in PER_LAYER}
    values.update(_memory_counts(window["count_results"]))
    selfs = self_times(spans)

    values["workloads.generate_ms"] = _total_ms(spans, "workloads.generate")
    values["workloads.trace_cache_ms"] = _total_ms(spans, "workloads.trace_cache")
    run_ns = {"native": 0, "fallback": 0, "python": 0}
    run_accesses = {"native": 0, "fallback": 0, "python": 0}
    l1_misses = 0
    for span in spans:
        if span["name"] != "backend.run":
            continue
        attrs = span["attrs"]
        duration = span["end_ns"] - span["start_ns"]
        fallback = attrs.get("fallback")
        kind = "fallback" if fallback else attrs["backend"]
        run_ns[kind] += duration
        run_accesses[kind] += attrs["accesses"]
        l1_misses += attrs["l1_misses"]
        if fallback:
            slug = FALLBACK_SLUGS.get(fallback, "other")
            values[f"backend.cells.fallback.{slug}"] += 1
        else:
            values[f"backend.cells.{kind}"] += 1
    for kind in run_ns:
        values[f"backend.run_ms.{kind}"] = _ms(run_ns[kind])
        if run_accesses[kind]:
            values[f"backend.ns_per_access.{kind}"] = run_ns[kind] / run_accesses[kind]
    if l1_misses:
        values["backend.ns_per_l1_miss"] = sum(run_ns.values()) / l1_misses

    values["sim.simulate_ms"] = _total_ms(spans, "sim.simulate")
    values["sim.self_ms"] = selfs.get("sim.simulate", 0.0)
    values["sim.validate_ms"] = _total_ms(spans, "sim.validate")
    values["store.put_ms"] = _total_ms(spans, "store.put")
    values["store.puts"] = sum(1 for s in spans if s["name"] == "store.put")
    values["store.open_ms"] = _total_ms(spans, "store.open")
    values["store.resume_ms"] = _total_ms(spans, "campaign.resume")

    names = {s["id"]: s["name"] for s in spans}
    cold = [
        s for s in spans
        if s["name"] == "campaign.prewarm" and names.get(s["parent"]) != "campaign.resume"
    ]
    if cold:
        wall_s = sum(s["end_ns"] - s["start_ns"] for s in cold) / 1e9
        busy_s = sum(
            s["end_ns"] - s["start_ns"]
            for s in spans
            if s["name"] == "sim.simulate" and s["attrs"].get("site") == "campaign"
        ) / 1e9
        cells = max(1, window["cells"])
        values["campaign.wall_s"] = wall_s
        values["campaign.busy_s"] = busy_s
        values["campaign.overhead_ms_per_cell"] = (
            (wall_s * window["workers"] - busy_s) / cells * 1000.0
        )

    mix_ms = [
        _ms(s["end_ns"] - s["start_ns"])
        for s in spans
        if s["name"] == "sim.simulate" and s["attrs"].get("mix")
    ]
    if mix_ms:
        values["multicore.cell_ms_p50"] = statistics.median(mix_ms)
    values["cells_timed"] = window["distinct_cells"]
    values.update(extra)
    return values
