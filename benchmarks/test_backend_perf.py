"""The backend layer: parity with, and speedup over, the python backend.

The numpy batch-stepping backend (:mod:`repro.backend.vector`) and the
compiled-epilogue native backend (:mod:`repro.backend.native`) claim
to be pure performance changes.  This module checks both halves of
that claim, per backend:

* **parity** — on the same trace and configuration each contender
  must commit exactly the same cycles, instructions, and hierarchy
  statistics as the ``python`` reference backend, including for the
  configurations it handles by falling back to the reference loop;
* **performance** — the contender/python throughput ratios measured
  by :func:`repro.bench.backend.run_backend_bench` must not regress by
  more than 20% against the committed baseline (``BENCH_backend.json``
  at the repository root), and the committed native ratio itself must
  clear the 3x floor the backend exists to provide.  Ratios compare
  two backends timed on the same interpreter and host, so the gates
  are meaningful on any CI machine even though raw accesses/sec are
  not.

Scale selection follows the shared benchmark convention
(``REPRO_BENCH_SCALE``); the regression gate uses fewer repeats at
``quick`` scale, trading noise margin for runtime, which the 20%
tolerance absorbs.  Note the gate compares ratios measured at possibly
different scales: at ``quick`` scale the short cold-start-dominated
traces batch almost nothing, so the fresh ratio reflects mostly the
scalar epilogue — the committed baseline's floor still holds because
the epilogue alone (interpreted for numpy, compiled for native) clears
it.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.backend.native import build as native_build
from repro.bench.backend import SCHEMA, run_backend_bench
from repro.memory import MemoryHierarchy
from repro.sim.config import SimulationConfig
from repro.workloads import Scale, generate

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_backend.json"

#: covers the batched path (none, nextline, tcp-8k) plus dbcp-2m and
#: hybrid-8k: the numpy engine's two reference-loop fallbacks (access
#: stream, gated L1 promotions), which native steps wholly in C.
PARITY_PREFETCHERS = ("none", "nextline", "tcp-8k", "dbcp-2m", "hybrid-8k")

CONTENDERS = ("numpy", "native")


def _require(contender: str) -> None:
    if contender == "native" and native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")


def _run_both(contender: str, workload: str, prefetcher: str, warmup: int = 0):
    """Run one trace under the python backend and one contender."""
    trace = generate(workload, Scale.QUICK)
    config = SimulationConfig.for_prefetcher(prefetcher)

    machines = {}
    results = {}
    for name in ("python", contender):
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results[name] = get_backend(name).run(
                trace, machine, config.core, warmup=warmup
            )
        machines[name] = machine
    return results, machines


@pytest.mark.parametrize("contender", CONTENDERS)
@pytest.mark.parametrize("prefetcher", PARITY_PREFETCHERS)
@pytest.mark.parametrize("workload", ("swim", "mcf"))
def test_backends_commit_identical_results(contender, workload, prefetcher):
    """Every contender agrees bit-for-bit with the reference backend."""
    _require(contender)
    results, machines = _run_both(contender, workload, prefetcher)
    assert results[contender].cycles == results["python"].cycles
    assert results[contender].instructions == results["python"].instructions
    assert results[contender].accesses == results["python"].accesses
    assert machines[contender].stats == machines["python"].stats


@pytest.mark.parametrize("contender", CONTENDERS)
def test_backends_match_with_warmup(contender):
    """Warmup bookkeeping (snapshot point, measured window) also agrees."""
    _require(contender)
    results, machines = _run_both(contender, "mcf", "tcp-8k", warmup=1000)
    assert results[contender].cycles == results["python"].cycles
    assert results[contender].instructions == results["python"].instructions
    assert machines[contender].stats == machines["python"].stats
    assert machines[contender].warmup_stats == machines["python"].warmup_stats


def test_committed_native_baseline_clears_three_x():
    """The committed baseline carries a native arm at >=3x geomean.

    This gates the repository artifact, not the current host: the
    whole point of the compiled epilogue is a >=3x geomean over the
    python reference on the fig11 mix at standard scale, and the
    committed BENCH_backend.json is the proof.  Regenerate it with
    `repro-tcp bench --backend native` (or the default two-arm run)
    on a machine with a C compiler if this fires.
    """
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    assert baseline["schema"] == SCHEMA
    speedups = baseline["speedups"]
    assert "native" in speedups, (
        "committed BENCH_backend.json has no native arm; regenerate it "
        "on a machine with a C compiler"
    )
    geomean = speedups["native"]["geomean_speedup"]
    assert geomean >= 3.0, (
        f"committed native geomean speedup {geomean:.2f}x is below the "
        f"3x floor the compiled epilogue is required to provide"
    )


def test_backend_speedup_has_not_regressed(scale):
    """Fresh contender/python ratios stay within 20% of the baseline.

    This is the CI backend-parity gate.  It re-measures the full
    default grid (which also re-asserts bit-identical results — the
    bench raises on any divergence) and compares per-contender geomean
    speedups; a >20% drop means an engine change gave back that
    backend's win.  Contenders absent from the fresh run (no compiler
    on this host, or ``REPRO_NATIVE=0``) are not gated here — the
    committed-baseline test above still enforces the artifact.
    """
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    assert baseline["schema"] == SCHEMA, (
        "BENCH_backend.json was written by an incompatible benchmark "
        "version; regenerate it with `repro-tcp bench --backend native`"
    )
    repeats = 2 if scale is Scale.QUICK else 3
    fresh = run_backend_bench(scale=scale, repeats=repeats, log=sys.stderr)
    for contender, fresh_stats in fresh["speedups"].items():
        committed = baseline["speedups"].get(contender)
        if committed is None:
            continue
        floor = committed["geomean_speedup"] * 0.8
        assert fresh_stats["geomean_speedup"] >= floor, (
            f"{contender} backend speedup regressed: fresh geomean "
            f"{fresh_stats['geomean_speedup']:.2f}x is below 80% of the "
            f"committed baseline ({committed['geomean_speedup']:.2f}x)"
        )
