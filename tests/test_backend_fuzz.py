"""Randomized differential testing of the simulation backends.

Hypothesis drives arbitrary small traces and machine shapes through
the ``python`` reference backend and every contender (``numpy``, and
``native`` when the compiled extension is available) and requires
bit-identical outcomes — the randomized counterpart to the
hand-picked boundary cases in ``tests/test_backend.py``.  Shrinking
makes a divergence actionable: the reported counterexample is the
shortest trace that still splits the backends.

The module also carries the full-surface oracle: every suite benchmark
under every paper configuration (26 x 6 = 156 runs at QUICK scale per
contender), compared across backends.  That is minutes of work, so it
only runs when ``REPRO_BACKEND_ORACLE=1`` is set — CI and pre-release
checks opt in; the default tier-1 run keeps the fuzz tests only.
"""

import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.backend.native import build as native_build
from repro.cpu.core import CoreParams
from repro.memory import MemoryHierarchy
from repro.sim import SimulationConfig, simulate
from repro.sim.runner import clear_cache
from repro.workloads import BENCHMARK_ORDER, Scale, Trace

#: prefetcher labels the fuzz cycles through: every ``PREFETCHERS``
#: entry, each with its own C trainer on the native backend (numpy
#: delegates DBCP and the hybrid to the reference loop).
FUZZ_LABELS = (
    "none", "nextline", "stride", "stream", "markov", "dbcp-2m", "tcp-8k",
    "tcp-8m", "hybrid-8k", "tcp-stride", "tcp-multi2", "tcp-conf", "tcp-look2",
)

#: the oracle grid: the paper's headline configurations.
ORACLE_LABELS = ("none", "nextline", "tcp-8k", "tcp-8m", "dbcp-2m", "hybrid-8k")

#: every backend compared against the reference.  ``native`` stays in
#: the grid even when the extension is missing — those cells skip with
#: the reason, so a CI log shows exactly what was not covered.
CONTENDERS = ("numpy", "native")


def _require(contender):
    if contender == "native" and native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")


@st.composite
def traces(draw):
    """Small adversarial traces: few distinct blocks (hits and misses
    interleave), few PCs (tag correlations repeat), occasional stores
    and short dependence chains."""
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.integers(min_value=1, max_value=48))
    addrs = rng.integers(0, blocks, n).astype(np.uint64) * np.uint64(64)
    if draw(st.booleans()):
        # widen some addresses so L2 sets/tags vary, not only L1's
        addrs += rng.integers(0, 4, n).astype(np.uint64) << np.uint64(20)
    deps = np.where(rng.random(n) < 0.15, 1, 0).astype(np.int64)
    deps[0] = 0
    return Trace(
        name="fuzz",
        addrs=addrs,
        pcs=rng.integers(0, 8, n).astype(np.uint64) * np.uint64(4),
        is_load=rng.random(n) < draw(st.sampled_from((0.5, 0.8, 1.0))),
        gaps=rng.integers(0, 7, n).astype(np.int64),
        deps=deps,
        base_ipc=draw(st.sampled_from((1.0, 2.0, 4.0))),
    )


def _run_backend(name, trace, config, params, warmup):
    machine = MemoryHierarchy(config.hierarchy)
    machine.attach_prefetcher(config.build_prefetcher())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = get_backend(name).run(trace, machine, params, warmup=warmup)
    return result, machine


@pytest.mark.parametrize("contender", CONTENDERS)
@settings(deadline=None, max_examples=60)
@given(
    trace=traces(),
    label=st.sampled_from(FUZZ_LABELS),
    window=st.sampled_from((2, 8, 128)),
    lsq=st.sampled_from((2, 128)),
    warmup_frac=st.sampled_from((0.0, 0.3)),
)
def test_backends_agree_on_arbitrary_traces(
    contender, trace, label, window, lsq, warmup_frac
):
    _require(contender)
    config = SimulationConfig.for_prefetcher(label)
    params = CoreParams(window=window, lsq=lsq)
    warmup = int(len(trace) * warmup_frac)
    ref, ref_machine = _run_backend("python", trace, config, params, warmup)
    new, new_machine = _run_backend(contender, trace, config, params, warmup)
    assert new == ref
    assert new_machine.stats == ref_machine.stats
    assert new_machine.warmup_stats == ref_machine.warmup_stats


@pytest.mark.skipif(
    os.environ.get("REPRO_BACKEND_ORACLE") != "1",
    reason="156-run oracle is minutes of work; set REPRO_BACKEND_ORACLE=1",
)
@pytest.mark.parametrize("contender", CONTENDERS)
@pytest.mark.parametrize("label", ORACLE_LABELS)
@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_oracle_cell(bench, label, contender):
    """Full-surface differential: every benchmark x configuration cell
    produces asdict-identical SimResults under every backend."""
    _require(contender)
    clear_cache()
    config = SimulationConfig.for_prefetcher(label)
    ref = simulate(bench, config, Scale.QUICK, use_cache=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        new = simulate(
            bench,
            dataclasses.replace(config, backend=contender),
            Scale.QUICK,
            use_cache=False,
        )
    assert dataclasses.asdict(new) == dataclasses.asdict(ref)
