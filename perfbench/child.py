"""Benchmark child process: ``build``, ``setup`` or ``measure`` mode.

``run.py`` starts one fresh interpreter per mode so that the one-time
native build, each set-up sample and the measurement are separate
processes with their own peak-RSS accounting.  ``measure`` prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import ledger
import loops


def build() -> dict:
    """Load the native extension, compiling it if no build is cached."""
    from repro.backend.native import build as native_build

    cache = Path(os.environ["XDG_CACHE_HOME"]) / "repro-tcp" / "native"
    before = set(cache.glob("*/_native*")) if cache.is_dir() else set()
    start = time.perf_counter()
    available = native_build.load() is not None
    after = set(cache.glob("*/_native*")) if cache.is_dir() else set()
    return {
        "available": available,
        "built": bool(after - before),
        "error": native_build.load_error(),
        "seconds": time.perf_counter() - start,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    cache_dir = run_dir / "traces"
    spill = run_dir / "spill"
    spill.mkdir(parents=True, exist_ok=True)
    tracer = ledger.Tracer(spill) if traced else None
    traces = loops.set_up(workload, seed, cache_dir, tracer)

    first = loops.run_window(workload, traces, seconds, cache_dir, run_dir / "untraced")
    peak_rss = loops.peak_rss_mb(include_children=workload == "campaign")
    checked = 0
    if workload == "grid":
        checked = loops.check_grid_reference(first, seed)
    else:
        loops.check_traces_consumed(first, traces)
        if workload == "campaign":
            loops.resume_campaign(first, None)
            loops.check_campaign_reference(first, traces)
    rows = run_dir / "cells.jsonl"
    loops.write_rows(rows, first, "untraced")
    windows = [first]
    ms = first.cell_ms()
    summary = {
        "cells": len(first.cells),
        "distinct_cells": len(ms),
        "passes": first.passes,
        "reference_cells": checked,
        "wall_s": first.wall_s,
        "rows": str(rows),
    }

    if not traced:
        metrics = {
            "accesses_per_s": first.accesses_per_s,
            "cell_ms_p50": loops.percentile(ms, 50),
            "cell_ms_p85": loops.percentile(ms, 85),
            "peak_rss_mb": peak_rss,
        }
    else:
        patches = ledger.install(tracer)
        try:
            second = loops.run_window(
                workload, traces, seconds, cache_dir, run_dir / "traced"
            )
            resumed = (
                loops.resume_campaign(second, tracer) if workload == "campaign" else None
            )
        finally:
            patches.restore()
        windows.append(second)
        loops.write_rows(rows, second, "traced")
        extra = traced_extras(workload, second, traces, resumed)
        extra["obs.trace_overhead_pct"] = (
            first.accesses_per_s / second.accesses_per_s - 1.0
        ) * 100.0
        spans = tracer.collect()
        window_info = {
            "count_results": [c.result for c in second.first_pass()],
            "cells": len(second.cells),
            "distinct_cells": len(second.cell_ms()),
            "workers": loops.pool_workers(),
        }
        metrics = ledger.per_layer(spans, window_info, extra)
        with (run_dir / "spans.jsonl").open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        with (run_dir / "ledger.json").open("w", encoding="utf-8") as handle:
            json.dump(
                {"metrics": metrics, "self_ms": ledger.self_times(spans)},
                handle,
                indent=2,
            )
        summary["spans"] = str(run_dir / "spans.jsonl")

    failures = [f for w in windows for f in w.failures]
    attempted = sum(len(w.cells) + sum(r.failed for r in w.reports) for w in windows)
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "summary": summary,
    }


def traced_extras(workload, window, traces, resumed) -> dict:
    """Per-layer figures that come from results, not spans."""
    extra = {}
    if workload == "grid":
        extra["model.tcp8k_gain_pct"] = loops.tcp8k_gain_pct(window, traces)
    elif workload == "campaign":
        reports = window.reports
        extra["campaign.executed"] = sum(r.executed for r in reports)
        extra["campaign.skipped"] = sum(r.skipped for r in reports) + resumed["skipped"]
        extra["campaign.retried"] = sum(r.retried for r in reports)
        extra["campaign.recycled"] = sum(r.recycled for r in reports)
        extra["campaign.failed"] = sum(r.failed for r in reports)
        extra["store.log_bytes"] = sum(
            (root / "results.jsonl").stat().st_size for root in window.stores
        )
    else:
        cores = [core for c in window.first_pass() for core in c.result.per_core]
        extra["multicore.bus_stall_cycles"] = sum(
            core.attribution.bus_stall_cycles for core in cores
        )
        extra["multicore.cross_core_evictions"] = sum(
            core.attribution.cross_core_evictions for core in cores
        )
    return extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("build", "setup", "measure"))
    parser.add_argument("--workload", choices=loops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "build":
        out = build()
    elif args.mode == "setup":
        loops.set_up(args.workload, args.seed, args.dir / "traces")
        return 0
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
