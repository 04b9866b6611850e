"""The backend layer: selection, parity, and batch-boundary behaviour.

The backend contract (:mod:`repro.backend.base`) is strict
bit-identity: any backend, any configuration, same
:class:`~repro.sim.results.SimResult` and same hierarchy counters.
This module exercises the contract where it is most likely to break:

* selection precedence (config field > ``REPRO_BACKEND`` > default)
  and the invariant that the choice never enters result fingerprints;
* golden-corpus cells replayed under the numpy backend;
* the batch/epilogue boundary — window and LSQ cuts, MSHR merges into
  in-flight misses, warmup snapshots landing mid-run, probes observing
  identical progress marks;
* composition with the sanitizer (``REPRO_SANITIZE=full`` and injected
  state corruptions) — checking runs bit-identical to unchecked ones,
  corruption still caught under the batched engine;
* the fallback path for configurations the batch model (numpy) or the
  C engine (native) cannot represent, and the single-slot plane cache
  across config switches.

``tests/test_backend_fuzz.py`` adds the randomized differential; the
benchmark-side gate lives in ``benchmarks/test_backend_perf.py``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV,
    NativeBackend,
    NumpyBackend,
    available_backends,
    backend_name,
    get_backend,
    resolve_backend,
)
from repro.backend import native as native_mod
from repro.backend import vector as vector_mod
from repro.backend.native import build as native_build
from repro.core.hybrid import HybridTCP
from repro.cpu.core import CoreParams, OutOfOrderCore
from repro.engine.probes import ProgressProbe
from repro.memory import MemoryHierarchy
from repro.memory.address import CacheGeometry
from repro.prefetchers.dbcp import DeadBlockCorrelatingPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim import PREFETCHERS, SimulationConfig, sanitizer as sanitizer_mod, simulate
from repro.sim.resilience import InvariantViolation
from repro.sim.runner import clear_cache
from repro.sim.sanitizer import schedule_state_corruption
from repro.sim.store import config_fingerprint
from repro.workloads import Scale, Trace, generate


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(sanitizer_mod.SANITIZE_ENV, raising=False)
    clear_cache()
    yield
    clear_cache()
    sanitizer_mod.consume_scheduled_corruption()


#: every backend the differential tests compare against the reference:
#: numpy always, native when the compiled extension loads on this host.
CONTENDERS = ("numpy",) + (
    ("native",) if native_build.load() is not None else ()
)


def _run_pair(trace, config, params=None, warmup=0, probes=None):
    """One trace under the reference and every contender backend;
    returns (results, machines)."""
    params = params or config.core
    results, machines = {}, {}
    for name in ("python",) + CONTENDERS:
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results[name] = get_backend(name).run(
                trace, machine, params, warmup=warmup,
                probes=probes[name] if probes else None,
            )
        machines[name] = machine
    return results, machines


def _assert_identical(results, machines):
    for name in CONTENDERS:
        assert results[name] == results["python"], name
        assert machines[name].stats == machines["python"].stats, name


def _loop_trace(n=6000, blocks=8, name="loop"):
    """A tight loop over a few blocks: all hits after the first touch,
    so the numpy engine steps almost the whole trace in batches."""
    addrs = (np.arange(n, dtype=np.uint64) % blocks) * np.uint64(64)
    pcs = np.arange(n, dtype=np.uint64) % np.uint64(4) * np.uint64(4)
    return Trace(
        name=name,
        addrs=addrs,
        pcs=pcs,
        is_load=np.ones(n, dtype=bool),
        gaps=np.full(n, 3, dtype=np.int64),
        deps=np.zeros(n, dtype=np.int64),
    )


class TestSelection:
    def test_registry_lists_all_backends(self):
        names = available_backends()
        assert "python" in names and "numpy" in names and "native" in names

    def test_default_is_python(self):
        assert backend_name() == "python"
        assert resolve_backend(None).name == "python"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert backend_name() == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert backend_name("python") == "python"

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="python"):
            get_backend("fortran")

    def test_config_validates_backend_type(self):
        with pytest.raises(ValueError, match="backend"):
            dataclasses.replace(SimulationConfig.baseline(), backend=3)

    def test_fingerprint_ignores_backend(self):
        """Backends are interchangeable, so a checkpoint produced under
        one must be a valid cache hit for the other."""
        base = SimulationConfig.for_prefetcher("tcp-8k")
        as_numpy = dataclasses.replace(base, backend="numpy")
        assert config_fingerprint(base) == config_fingerprint(as_numpy)


class TestGoldenParity:
    """The golden-corpus cells, replayed under ``backend="numpy"``.

    ``tests/test_golden.py`` freezes these cells against the reference
    backend; asdict-equality between backend selections extends the
    freeze to the numpy engine (including its fallback configs).
    """

    CELLS = (("swim", "tcp-8k"), ("mcf", "tcp-8m"), ("gcc", "dbcp-2m"))

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("bench,label", CELLS)
    def test_simresults_match_bit_for_bit(self, bench, label, contender):
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

    def test_env_selection_reaches_the_runner(self, monkeypatch):
        ref = simulate("swim", SimulationConfig.baseline(), Scale.QUICK,
                       use_cache=False)
        seen = {}
        original = NumpyBackend.run

        def spying(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            seen["stats"] = self.last_engine_stats
            return result

        monkeypatch.setattr(NumpyBackend, "run", spying)
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        new = simulate("swim", SimulationConfig.baseline(), Scale.QUICK,
                       use_cache=False)
        assert seen, "REPRO_BACKEND did not route the run to NumpyBackend"
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)


class TestBatchBoundaries:
    """The cut points where a batch hands off to the scalar epilogue."""

    def test_loop_trace_engages_batches(self):
        trace = _loop_trace()
        config = SimulationConfig.baseline()
        backend = NumpyBackend()
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        result = backend.run(trace, machine, config.core)
        stats = backend.last_engine_stats
        assert stats["batches"] > 0
        assert stats["batched_accesses"] > len(trace) // 2
        assert stats["batched_accesses"] + stats["scalar_accesses"] == len(trace)
        # and the batched run is still bit-identical
        ref_machine = MemoryHierarchy(config.hierarchy)
        ref_machine.attach_prefetcher(config.build_prefetcher())
        ref = OutOfOrderCore(config.core).run(trace, ref_machine)
        assert result == ref
        assert machine.stats == ref_machine.stats

    @pytest.mark.parametrize("window,lsq", ((4, 128), (128, 2), (3, 3)))
    def test_window_and_lsq_cuts(self, window, lsq):
        """Tiny window/LSQ force mid-batch structural stalls; the batch
        must be cut and replayed without drifting from the reference."""
        trace = _loop_trace()
        config = SimulationConfig.baseline()
        params = CoreParams(window=window, lsq=lsq)
        results, machines = _run_pair(trace, config, params=params)
        _assert_identical(results, machines)

    def test_mshr_merge_into_inflight_miss(self):
        """Back-to-back accesses to the same cold block: the second
        merges into the first's in-flight MSHR entry (and poisons any
        batch covering it)."""
        n = 4000
        base = np.repeat(np.arange(n // 2, dtype=np.uint64), 2)
        addrs = base * np.uint64(64)
        trace = Trace(
            name="merge",
            addrs=addrs,
            pcs=np.zeros(n, dtype=np.uint64),
            is_load=np.ones(n, dtype=bool),
            gaps=np.zeros(n, dtype=np.int64),
            deps=np.zeros(n, dtype=np.int64),
        )
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("nextline")
        )
        _assert_identical(results, machines)

    def test_stores_and_dependences(self):
        """Store overrides and pointer-chasing deps inside hit runs."""
        n = 5000
        rng = np.random.default_rng(7)
        deps = np.where(rng.random(n) < 0.2, 1, 0).astype(np.int64)
        deps[0] = 0  # a dependence cannot point before the trace start
        trace = Trace(
            name="mix",
            addrs=(rng.integers(0, 64, n).astype(np.uint64)) * np.uint64(64),
            pcs=rng.integers(0, 16, n).astype(np.uint64) * np.uint64(4),
            is_load=rng.random(n) < 0.7,
            gaps=rng.integers(0, 6, n).astype(np.int64),
            deps=deps,
        )
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k")
        )
        _assert_identical(results, machines)

    def test_warmup_snapshot_mid_run(self):
        """The warmup boundary can land inside what would be a batch;
        the measured-window bookkeeping must still agree."""
        trace = _loop_trace()
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k"),
            warmup=len(trace) // 3,
        )
        _assert_identical(results, machines)
        assert (
            machines["numpy"].warmup_stats == machines["python"].warmup_stats
        )

    def test_probes_see_identical_marks(self):
        """Progress probes fire at the shared periodic marks with the
        same (done, total, sim_time) under either backend."""
        trace = generate("fma3d", Scale.QUICK)
        marks = {name: [] for name in ("python",) + CONTENDERS}
        probes = {
            name: [ProgressProbe(
                lambda done, total, sim_time, _n=name:
                    marks[_n].append((done, total, sim_time))
            )]
            for name in marks
        }
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k"), probes=probes
        )
        _assert_identical(results, machines)
        for name in CONTENDERS:
            assert marks[name] == marks["python"], name
        assert marks["python"], "no progress marks fired at all"


class TestSanitizerComposition:
    """``--sanitize full`` + ``--backend numpy`` compose."""

    def test_full_sanitize_matches_unsanitized(self):
        config = SimulationConfig.for_prefetcher("tcp-8k")
        plain = simulate("fma3d", config, Scale.QUICK, use_cache=False)
        checked = simulate(
            "fma3d",
            dataclasses.replace(config, sanitize="full", backend="numpy"),
            Scale.QUICK,
            use_cache=False,
        )
        assert dataclasses.asdict(checked) == dataclasses.asdict(plain)

    @pytest.mark.parametrize("kind,invariant", (
        ("stats-drift", "stats-l1-conservation"),
        ("cache-dup", "cache-set-duplicate"),
        ("tht-shape", "tht-history-length"),
    ))
    def test_corruption_still_caught_under_numpy(self, kind, invariant):
        """An injected state corruption must not hide behind the batch
        engine's local mirrors of hierarchy state."""
        config = dataclasses.replace(
            SimulationConfig.for_prefetcher("tcp-8k"),
            sanitize="full",
            backend="numpy",
        )
        schedule_state_corruption(kind)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate("fma3d", config, Scale.QUICK, use_cache=False)
        assert excinfo.value.invariant == invariant


class TestFallbacks:
    """Configurations the batch model cannot represent run on the
    reference loop — with a one-line warning, never a wrong result."""

    @pytest.mark.parametrize("label,reason", (
        ("dbcp-2m", "prefetcher observes the access stream"),
        ("hybrid-8k", "gated L1 promotions"),
    ))
    def test_fallback_reason_reported(self, label, reason, monkeypatch):
        monkeypatch.setattr(vector_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.for_prefetcher(label)
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        backend = NumpyBackend()
        with pytest.warns(RuntimeWarning, match=reason):
            backend.run(trace, machine, config.core)
        assert backend.last_engine_stats == {"fallback": reason}

    def test_fallback_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.for_prefetcher("hybrid-8k")
        backend = NumpyBackend()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                machine = MemoryHierarchy(config.hierarchy)
                machine.attach_prefetcher(config.build_prefetcher())
                backend.run(trace, machine, config.core)
        relevant = [w for w in caught if "numpy backend" in str(w.message)]
        assert len(relevant) == 1


class _DBCPSubclass(DeadBlockCorrelatingPrefetcher):
    """A subclass may override hooks the C engine never calls."""


class _HybridSubclass(HybridTCP):
    """A subclass may override the promotion gate."""


class _StrideSubclass(StridePrefetcher):
    """A subclass may override ``observe_miss``: this one counts calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def observe_miss(self, miss):
        self.calls += 1
        return super().observe_miss(miss)


def _native_fallback_machine(case):
    """(config, machine) for a configuration the C engine cannot model."""
    config = SimulationConfig.for_prefetcher("tcp-8k")
    if case == "set-assoc-l1d":
        config = config.with_hierarchy(l1d=CacheGeometry(32 * 1024, 2, 32))
    elif case == "direct-mapped-l2":
        config = config.with_hierarchy(l2=CacheGeometry(1024 * 1024, 1, 64))
    elif case == "hybrid-subclass":
        config = SimulationConfig.for_prefetcher("hybrid-8k")
    machine = MemoryHierarchy(config.hierarchy)
    if case == "dbcp-subclass":
        machine.attach_prefetcher(_DBCPSubclass())
    elif case == "hybrid-subclass":
        base = config.build_prefetcher()
        machine.attach_prefetcher(_HybridSubclass(base.config))
    else:
        machine.attach_prefetcher(config.build_prefetcher())
    return config, machine


def _require_native():
    if native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")


#: configurations the C engine still sends to the reference loop.
NATIVE_FALLBACKS = (
    pytest.param("set-assoc-l1d", "set-associative L1D", id="set-assoc-l1d"),
    pytest.param("direct-mapped-l2", "direct-mapped L2", id="direct-mapped-l2"),
    pytest.param(
        "dbcp-subclass", "prefetcher observes the access stream", id="dbcp-subclass"
    ),
    pytest.param("hybrid-subclass", "gated L1 promotions", id="hybrid-subclass"),
)


class TestNativeFallbacks:
    """The native backend's two-tier degradation: config-level
    fallbacks to the reference loop, extension-unavailable fallbacks
    to the numpy engine (or to the reference loop for what numpy cannot
    model) — loud once, then silent, never wrong."""

    @pytest.mark.parametrize("case,reason", NATIVE_FALLBACKS)
    def test_config_fallback_reason_reported(self, case, reason, monkeypatch):
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config, machine = _native_fallback_machine(case)
        backend = NativeBackend()
        with pytest.warns(RuntimeWarning, match=reason):
            result = backend.run(trace, machine, config.core)
        assert backend.last_engine_stats == {"fallback": reason}
        ref_config, ref_machine = _native_fallback_machine(case)
        ref = get_backend("python").run(trace, ref_machine, ref_config.core)
        assert result == ref
        assert machine.stats == ref_machine.stats

    @pytest.mark.parametrize("label", sorted(PREFETCHERS))
    def test_every_prefetcher_runs_compiled(self, label, monkeypatch):
        """Every paper configuration takes the C engine: no fallback, no
        warning, the whole trace stepped in C, and the prefetcher
        trained in C (no ``observe_miss`` callback)."""
        _require_native()
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.for_prefetcher(label)
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        backend = NativeBackend()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = backend.run(trace, machine, config.core)
        stats = backend.last_engine_stats
        assert "fallback" not in stats
        assert stats["scalar_accesses"] == len(trace)
        # the only Python re-entries left are on the instruction-fetch
        # path
        assert stats["callbacks_observe_miss"] == 0
        assert stats["callbacks_evict"] == 0
        ref_machine = MemoryHierarchy(config.hierarchy)
        ref_machine.attach_prefetcher(config.build_prefetcher())
        ref = get_backend("python").run(trace, ref_machine, config.core)
        assert result == ref
        assert machine.stats == ref_machine.stats

    def test_prefetcher_subclass_trains_through_the_callback(self, monkeypatch):
        """C trains only the exact types it knows: a subclass (which may
        override ``observe_miss``) still runs compiled, but trains
        through the Python callback, bit-identically."""
        _require_native()
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.baseline()
        results, machines = [], []
        for name in ("python", "native"):
            machine = MemoryHierarchy(config.hierarchy)
            machine.attach_prefetcher(_StrideSubclass())
            backend = get_backend(name)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                results.append(backend.run(trace, machine, config.core))
            machines.append(machine)
        stats = backend.last_engine_stats
        assert "fallback" not in stats
        assert stats["callbacks_observe_miss"] == machines[1].prefetcher.calls > 0
        assert results[1] == results[0]
        assert machines[1].stats == machines[0].stats
        assert machines[1].prefetcher.stats == machines[0].prefetcher.stats
        assert machines[0].stats.prefetches_issued > 0

    @pytest.mark.parametrize("label,numpy_reason", (
        ("dbcp-2m", "prefetcher observes the access stream"),
        ("hybrid-8k", "gated L1 promotions"),
    ))
    def test_unavailable_extension_never_hands_dbcp_or_hybrid_to_numpy(
        self, label, numpy_reason, monkeypatch
    ):
        """Without the extension, what the numpy engine cannot model
        lands on the reference loop — with the reason recorded and one
        warning — rather than on ``VectorCore``."""
        monkeypatch.setenv(native_build.NATIVE_ENV, "0")
        monkeypatch.setattr(native_build, "_MODULE", None)
        monkeypatch.setattr(native_build, "_ERROR", None)
        monkeypatch.setattr(native_build, "_TRIED", False)
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        try:
            trace = generate("swim", Scale.QUICK)
            config = SimulationConfig.for_prefetcher(label)
            backend = NativeBackend()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(2):
                    machine = MemoryHierarchy(config.hierarchy)
                    machine.attach_prefetcher(config.build_prefetcher())
                    result = backend.run(trace, machine, config.core)
            relevant = [w for w in caught if "native backend" in str(w.message)]
            assert len(relevant) == 1
            assert "python reference loop" in str(relevant[0].message)
            reason = backend.last_engine_stats["fallback"]
            assert backend.last_engine_stats == {"fallback": reason}
            assert "disabled by REPRO_NATIVE=0" in reason
            assert numpy_reason in reason
            ref_machine = MemoryHierarchy(config.hierarchy)
            ref_machine.attach_prefetcher(config.build_prefetcher())
            ref = get_backend("python").run(trace, ref_machine, config.core)
            assert result == ref
            assert machine.stats == ref_machine.stats
        finally:
            native_build.reset()

    def test_unavailable_extension_falls_back_to_numpy(self, monkeypatch):
        """With the extension refused (``REPRO_NATIVE=0``) the native
        backend runs the numpy engine, warns once, and records why —
        and the results are still bit-identical to the reference."""
        monkeypatch.setenv(native_build.NATIVE_ENV, "0")
        monkeypatch.setattr(native_build, "_MODULE", None)
        monkeypatch.setattr(native_build, "_ERROR", None)
        monkeypatch.setattr(native_build, "_TRIED", False)
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        try:
            trace = generate("swim", Scale.QUICK)
            config = SimulationConfig.for_prefetcher("tcp-8k")
            machine = MemoryHierarchy(config.hierarchy)
            machine.attach_prefetcher(config.build_prefetcher())
            backend = NativeBackend()
            with pytest.warns(RuntimeWarning, match="native extension "
                                                    "unavailable"):
                result = backend.run(trace, machine, config.core)
            stats = backend.last_engine_stats
            assert "disabled by REPRO_NATIVE=0" in stats["fallback"]
            # the numpy engine really ran: its accounting is present
            assert stats["batched_accesses"] + stats["scalar_accesses"] == len(
                trace
            )
            ref_machine = MemoryHierarchy(config.hierarchy)
            ref_machine.attach_prefetcher(config.build_prefetcher())
            ref = get_backend("python").run(trace, ref_machine, config.core)
            assert result == ref
            assert machine.stats == ref_machine.stats
        finally:
            # un-memoise the refused probe so later tests see the real
            # availability again (monkeypatch restores the env var)
            native_build.reset()

    def test_unavailable_warns_once_per_process(self, monkeypatch):
        monkeypatch.setenv(native_build.NATIVE_ENV, "0")
        monkeypatch.setattr(native_build, "_MODULE", None)
        monkeypatch.setattr(native_build, "_ERROR", None)
        monkeypatch.setattr(native_build, "_TRIED", False)
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        try:
            trace = generate("swim", Scale.QUICK)
            config = SimulationConfig.for_prefetcher("nextline")
            backend = NativeBackend()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(3):
                    machine = MemoryHierarchy(config.hierarchy)
                    machine.attach_prefetcher(config.build_prefetcher())
                    backend.run(trace, machine, config.core)
            relevant = [
                w for w in caught
                if "native extension unavailable" in str(w.message)
            ]
            assert len(relevant) == 1
        finally:
            native_build.reset()

    def test_fallback_recorded_in_simresult(self, monkeypatch):
        """The runner copies the engine's fallback reason into
        ``SimResult.backend_fallback`` (provenance metadata only — it
        stays out of equality and asdict fingerprints)."""
        config = dataclasses.replace(
            SimulationConfig.for_prefetcher("tcp-8k").with_hierarchy(
                l2=CacheGeometry(1024 * 1024, 1, 64)
            ),
            backend="native",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = simulate("swim", config, Scale.QUICK, use_cache=False)
        assert result.backend_fallback == "direct-mapped L2"
        payload = result.to_dict()
        assert payload["backend_fallback"] == "direct-mapped L2"
        from repro.sim.results import SimResult

        rebuilt = SimResult.from_dict(payload)
        assert rebuilt.backend_fallback == "direct-mapped L2"
        assert rebuilt == result
        # every paper configuration runs compiled
        if native_build.load() is not None:
            for label in PREFETCHERS:
                compiled = simulate(
                    "swim",
                    dataclasses.replace(
                        SimulationConfig.for_prefetcher(label), backend="native"
                    ),
                    Scale.QUICK,
                    use_cache=False,
                )
                assert compiled.backend_fallback is None, label
        # a non-degraded run records nothing
        clean = simulate(
            "swim",
            dataclasses.replace(
                SimulationConfig.for_prefetcher("tcp-8k"), backend="numpy"
            ),
            Scale.QUICK,
            use_cache=False,
        )
        assert clean.backend_fallback is None
        assert "backend_fallback" not in clean.to_dict()


class TestPlaneCache:
    """The single-slot per-trace plane memo must never leak state
    between configurations or traces."""

    def test_reuse_across_configs_and_back(self):
        trace = _loop_trace()
        for label in ("tcp-8k", "nextline", "tcp-8k", "none"):
            config = SimulationConfig.for_prefetcher(label)
            results, machines = _run_pair(trace, config)
            _assert_identical(results, machines)

    def test_slot_eviction_on_new_trace(self):
        first = _loop_trace(name="first")
        second = _loop_trace(n=4096, blocks=5, name="second")
        config = SimulationConfig.for_prefetcher("tcp-8k")
        for trace in (first, second, first):
            results, machines = _run_pair(trace, config)
            _assert_identical(results, machines)
