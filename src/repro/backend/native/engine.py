"""The compiled core loop: every access of the trace stepped in C.

:class:`NativeCore` hands each span of the trace — the accesses up to
the next probe mark or the warmup boundary — to one ``Engine.step``
call of :mod:`repro.backend.native._native`, which runs the reference
loop's per-access state machine in C: dispatch and window/LSQ
back-pressure, the direct-mapped L1D probe and fill, the MSHR file
(lazy-deletion ready heap), the L2 probe/fill/LRU on the live
``LRUSet`` dicts, buses, DRAM, prefetch issue and prefetcher training.
The C code performs the same IEEE double operations in the same order
as the reference loop, so results stay bit-identical.

The trace reaches C as flat ndarray planes (L1 split, instruction
counts, dispatch increments, L2 split, dependences, load flags, PCs,
fetch blocks); the L1D lines and the completion/commit timelines are
ndarrays shared with C as well.

Every ``PREFETCHERS`` entry trains in C, chosen on the prefetcher's
exact type (:func:`_trainer`).  The TCP family trains the live THT rows
and PHT dicts; the confidence-filtered TCP's counters stay a live dict.
The private tables of the other trainers are flat in C: the RPT, the
stream buffers, the Markov table and its previous block, the stride
detector, DBCP's signature table, live signatures and pending death
signature, and the hybrid's pending promotions, timekeeping table and
prefetch bus.  Those Python objects, and every counter, are written at
each probe mark and at the end of the run (``sync_out``) and reloaded
after the probes ran (``sync_in``), so probes and the sanitizer see,
and may change, exactly the state the reference loop would hold.

Python re-entries left, counted by kind in ``engine_stats``
(``callbacks_*``): instruction fetches that miss the L1I-resident set,
L1I recency refreshes, eviction hooks of custom observers, and
``observe_miss`` for prefetchers without a C trainer — subclasses and
unknown types, whose overridden hooks C cannot know.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.backend.native import build
from repro.core.hybrid import HybridTCP
from repro.core.indexing import IndexFunction
from repro.core.tcp import TagCorrelatingPrefetcher
from repro.core.variants import (
    ConfidenceFilteredTCP,
    LookaheadTCP,
    MultiTargetTCP,
    StrideFilteredTCP,
)
from repro.cpu.core import CoreParams, CoreResult
from repro.engine.events import EvictionEvent, MissEvent
from repro.engine.probes import CoreMark, Probe, resolve_probes
from repro.memory.cache import CacheLine
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.dbcp import DeadBlockCorrelatingPrefetcher
from repro.prefetchers.markov import MarkovPrefetcher, _MarkovEntry
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stream import StreamBufferPrefetcher, _Stream
from repro.prefetchers.stride import StridePrefetcher, _RPTEntry
from repro.util.bitops import index_geometry
from repro.workloads.trace import Trace

__all__ = ["NativeCore"]

#: the C trainer of each exact prefetcher type; subclasses keep the
#: Python ``observe_miss`` callback.
_TRAINERS = {
    NullPrefetcher: "null",
    NextLinePrefetcher: "nextline",
    StridePrefetcher: "stride",
    StreamBufferPrefetcher: "stream",
    MarkovPrefetcher: "markov",
    DeadBlockCorrelatingPrefetcher: "dbcp",
    TagCorrelatingPrefetcher: "tcp",
    MultiTargetTCP: "tcp",
    StrideFilteredTCP: "tcp-stride",
    ConfidenceFilteredTCP: "tcp-conf",
    LookaheadTCP: "tcp-look",
    HybridTCP: "hybrid",
}

_TCP_TRAINERS = ("tcp", "tcp-stride", "tcp-conf", "tcp-look", "hybrid")


def _trainer(hierarchy: MemoryHierarchy) -> str:
    """Name of the C trainer for this run's prefetcher.

    ``"absent"`` without a prefetcher, ``"callback"`` when C has no
    trainer for it.  The TCP family needs the truncated-add PHT index
    and one THT row (and stride-detector set) per L1 set; DBCP needs
    signatures that fit a 64-bit word.
    """
    prefetcher = hierarchy.prefetcher
    if prefetcher is None:
        return "absent"
    name = _TRAINERS.get(type(prefetcher), "callback")
    if name in _TCP_TRAINERS:
        n_sets = hierarchy.params.l1d.sets
        if (
            prefetcher.pht.config.index_function is not IndexFunction.TRUNCATED_ADD
            or prefetcher.tht.rows != n_sets
            or (name == "tcp-stride" and prefetcher.detector.sets != n_sets)
        ):
            return "callback"
    if name == "dbcp" and prefetcher.config.signature_bits >= 64:
        return "callback"
    return name


def _fallback_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why this run cannot take the compiled engine (None = it can).

    Access-stream observers and gated promotions run natively only for
    the exact DBCP and hybrid classes; subclasses and custom observers
    may override hooks the C engine does not call, so they stay on the
    reference loop.
    """
    if hierarchy._l1_lines is None:
        return "set-associative L1D"
    trainer = _trainer(hierarchy)
    if hierarchy._needs_access and trainer != "dbcp":
        return "prefetcher observes the access stream"
    if hierarchy._promotions_enabled and trainer != "hybrid":
        return "gated L1 promotions"
    if hierarchy.l2d._direct_mapped:
        return "direct-mapped L2"
    return None


def _trainer_spec(trainer: str, prefetcher, hierarchy: MemoryHierarchy) -> dict:
    """The spec entries of a trainer's private state (see ``_native.c``)."""
    if trainer == "nextline":
        return {"degree": prefetcher.degree}
    if trainer == "stride":
        cfg = prefetcher.config
        return {"degree": cfg.lookahead, "ways": cfg.ways,
                "table": prefetcher._sets, "entry": _RPTEntry}
    if trainer == "stream":
        cfg = prefetcher.config
        return {"buffers": cfg.buffers, "depth": cfg.depth, "entry": _Stream}
    if trainer == "markov":
        cfg = prefetcher.config
        return {"targets": cfg.targets, "ways": cfg.ways,
                "table": prefetcher._sets, "entry": _MarkovEntry}
    if trainer == "tcp-stride":
        return {"detector": prefetcher.detector,
                "depth": prefetcher.detector.depth}
    if trainer == "tcp-conf":
        return {"threshold": prefetcher.threshold, "maximum": prefetcher.maximum}
    if trainer == "tcp-look":
        return {"degree": prefetcher.degree}
    if trainer == "dbcp":
        cfg = prefetcher.config
        return {"ways": cfg.ways, "table": prefetcher._table,
                "dbcp_shift": cfg.sets.bit_length() - 1,
                "sig_mask": prefetcher._sig_mask}
    if trainer == "hybrid":
        deadblock = prefetcher.deadblock
        bcfg = deadblock.config
        return {"ways": bcfg.ways, "table": deadblock._history,
                "dead_factor": float(bcfg.dead_factor),
                "default_idle": float(bcfg.default_idle_threshold),
                "min_idle": float(bcfg.min_idle),
                "ttl": float(hierarchy.params.promotion_ttl)}
    return {}


def _trace_planes(trace: Trace, hierarchy: MemoryHierarchy, dispatch_rate: float) -> dict:
    """The read-only ndarray planes ``Engine.step`` reads, one per column."""
    hp = hierarchy.params
    blocks, indices, tags = hp.l1d.decompose_array(trace.addrs)
    steps = trace.gaps.astype(np.int64) + 1
    l2b = blocks >> hierarchy._l2_shift
    fb = None
    if hp.model_icache:
        fb = (trace.pcs >> np.uint64(hp.l1i.offset_bits)).astype(np.int64)
    return {
        "idx": indices,
        "instr": np.cumsum(steps),  # int64: exact
        "blocks": blocks,
        "tags": tags,
        "deps": np.ascontiguousarray(trace.deps, dtype=np.int64),
        "load": trace.is_load.astype(bool).view(np.uint8),
        "incs": steps.astype(np.float64) / dispatch_rate,
        "l2i": np.ascontiguousarray(l2b & hierarchy._l2_index_mask),
        "l2t": np.ascontiguousarray(l2b >> hierarchy._l2_index_bits),
        "pcs": np.ascontiguousarray(trace.pcs, dtype=np.uint64),
        "fb": fb,
    }


def _engine_stats() -> dict:
    """Per-run accounting: accesses stepped in C, time per layer in ns
    (plane build, the C loop, boundary syncs), Python re-entries."""
    return {
        "scalar_accesses": 0,
        "planes_ns": 0,
        "epilogue_ns": 0,
        "sync_ns": 0,
        "callbacks_ifetch": 0,
        "callbacks_l1i_lookup": 0,
        "callbacks_observe_miss": 0,
        "callbacks_evict": 0,
    }


class NativeCore:
    """Bit-exact core loop stepping the whole trace in C.

    Valid for a direct-mapped L1D and a set-associative L2, with any
    prefetcher except access-stream observers and gated promotions
    other than the exact DBCP and hybrid classes (see
    :func:`_fallback_reason`).  Requires the ``_native`` extension to
    be importable (see :mod:`repro.backend.native.build`).
    """

    def __init__(self, params: CoreParams = CoreParams()) -> None:
        self.params = params
        self.engine_stats = _engine_stats()

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        native = build.load()
        if native is None:
            raise RuntimeError(
                f"native extension unavailable: {build.load_error()}"
            )
        params = self.params
        n = len(trace)
        if not 0 <= warmup < max(n, 1):
            raise ValueError(f"warmup ({warmup}) must be < trace length ({n})")
        if n == 0:
            return CoreResult(0, 0.0, 0)
        reason = _fallback_reason(hierarchy)
        if reason is not None:
            raise ValueError(
                f"NativeCore cannot model this configuration ({reason}); "
                "use the python backend"
            )
        active_probes = resolve_probes(None, 2048, None, probes)
        stats = self.engine_stats = _engine_stats()
        t_planes = time.perf_counter_ns()

        dispatch_rate = min(float(params.issue_width), trace.base_ipc)
        planes = _trace_planes(trace, hierarchy, dispatch_rate)
        instr_arr = planes["instr"]
        model_icache = hierarchy.params.model_icache

        # Full-length completion/commit timelines, shared with C.
        completions_np = np.zeros(n, dtype=np.float64)
        commits_np = np.zeros(n, dtype=np.float64)

        # ---- L1D state planes + L1I residency -----------------------
        l1_lines = hierarchy._l1_lines
        n_sets = hierarchy.params.l1d.sets
        tag_arr = np.full(n_sets, -1, dtype=np.int64)
        la_arr = np.zeros(n_sets, dtype=np.float64)
        dirty_arr = np.zeros(n_sets, dtype=np.uint8)
        ft_arr = np.zeros(n_sets, dtype=np.float64)
        pf_arr = np.zeros(n_sets, dtype=np.uint8)
        for s2, line in enumerate(l1_lines):
            if line is not None:
                tag_arr[s2] = line.tag
                la_arr[s2] = line.last_access
                dirty_arr[s2] = line.dirty
                ft_arr[s2] = line.fill_time
                pf_arr[s2] = line.prefetched

        l1i = hierarchy.l1i
        l1i_bits, l1i_mask = index_geometry(hierarchy.params.l1i.sets)
        resident: set = set()  # L1I-resident fetch blocks (shared with C)

        hier_stats = hierarchy.stats
        hp = hierarchy.params
        mshr = hierarchy.mshr
        l2_sets = hierarchy.l2d._sets
        l2_entries = [lru_._entries for lru_ in l2_sets]
        l1_ib = hierarchy._l1_index_bits

        prefetcher = hierarchy.prefetcher
        trainer = _trainer(hierarchy)
        native_trained = trainer not in ("absent", "callback")
        tcp = trainer in _TCP_TRAINERS
        spec = {
            "trainer": trainer,
            "pf": prefetcher,
            "into_l1": int(trainer == "hybrid" and prefetcher.into_l1),
            "pb": hierarchy.prefetch_bus,
            "pht_sets": None,
            "tht_hist": None,
            "tht_sums": None,
            "seq_mask": 0,
            "miss_mask": 0,
            "n_bits": 0,
            "tht_ib": 0,
            "pht_ways": 0,
            "pht_targets": 0,
        }
        tht_sums_arr = None
        if tcp:
            tht = prefetcher.tht
            pht = prefetcher.pht
            tht_hist = tht._history
            tht_sums_arr = np.array([sum(r_) for r_ in tht_hist], dtype=np.int64)
            scheme = pht._scheme
            spec.update({
                "pht_sets": pht._sets,
                "tht_hist": tht_hist,
                "tht_sums": tht_sums_arr,
                "seq_mask": scheme._sequence_mask,
                "miss_mask": scheme._miss_mask,
                "n_bits": scheme.miss_index_bits,
                "tht_ib": tht.index_bits,
                "pht_ways": pht.config.ways,
                "pht_targets": pht.config.targets,
            })
        spec.update(_trainer_spec(trainer, prefetcher, hierarchy))
        spec.update(planes)
        spec.update({
            # timelines + L1 planes
            "completions": completions_np,
            "commits": commits_np,
            "l1_tag": tag_arr,
            "l1_la": la_arr,
            "l1_ft": ft_arr,
            "l1_dirty": dirty_arr,
            "l1_pf": pf_arr,
            # live containers
            "msh_inf": mshr._inflight,
            "mem_comp": hierarchy.memory._completions,
            "pf_inflight": hierarchy._pf_inflight,
            "l2_entries": l2_entries,
            "l2_sets": l2_sets,
            "resident": resident,
            "cacheline": CacheLine,
            "l1i_lookup": l1i.lookup,
            "ab": hierarchy.l1l2_addr_bus,
            "db": hierarchy.l1l2_data_bus,
            "mab": hierarchy.mem_addr_bus,
            "mdb": hierarchy.mem_data_bus,
            "mshr": mshr,
            "memory": hierarchy.memory,
            "hierarchy": hierarchy,
            # machine scalars
            "window": params.window,
            "lsq": params.lsq,
            "ls_s": 1.0 / params.ls_units,
            "inv_cr": 1.0 / float(params.issue_width),
            "l1_lat": hierarchy._l1_latency,
            "l2_lat": hierarchy._l2_latency,
            "l1_beats": -(-hp.l1d.block_bytes // hp.l1l2_bus_bytes_per_cycle),
            "mem_beats": -(-hp.l2.block_bytes // hp.mem_bus_bytes_per_cycle),
            "mem_lat": hp.memory_latency,
            "mem_maxc": hp.memory_concurrency,
            "msh_entries": mshr.entries,
            "l2_ways": hp.l2.ways,
            "l2_shift": hierarchy._l2_shift,
            "l2_imask": hierarchy._l2_index_mask,
            "l2_ibits": hierarchy._l2_index_bits,
            "l1_ib": l1_ib,
            "l1_set_mask": n_sets - 1,
            "l1i_mask": l1i_mask,
            "l1i_bits": l1i_bits,
            "pf_delay": hierarchy._pf_delay,
            "pf_max": hp.max_outstanding_prefetches,
            "pf_busy_thr": float(hp.prefetch_busy_threshold),
            "lru_pf": int(hp.prefetch_insert_policy == "lru"),
            "ideal_l2": int(hierarchy._ideal_l2),
            "model_icache": int(model_icache),
            "needs_evict": int(hierarchy._needs_evict),
        })
        eng = native.Engine(spec)

        ifetch = hierarchy.instruction_fetch
        observe_miss = prefetcher.observe_miss if prefetcher else None
        observe_evict = prefetcher.observe_eviction if prefetcher else None

        def ifetch_cb(nd_now: float, pc: int, fb: int) -> float:
            # The hierarchy's sequential-fetch tracker is stale (C steps
            # bypass it); clear it so the real fetch never early-outs.
            # Component state was synced by C.
            hierarchy._last_ifetch_block = -1
            pen = ifetch(nd_now, pc)
            ii = fb & l1i_mask
            keep = [b for b in resident if (b & l1i_mask) != ii]
            resident.clear()
            resident.update(keep)
            for ln in l1i.resident_lines(ii):
                resident.add((ln.tag << l1i_bits) | ii)
            return pen

        def observe_cb(s, tag, block, pc, store, v):
            requests = observe_miss(MissEvent(s, tag, block, pc, store, v))
            if not requests:
                return None
            return [req.block for req in requests]

        def evict_cb(s, vt, comp, old_ft, old_la):
            observe_evict(
                EvictionEvent(s, vt, (vt << l1_ib) | s, comp, old_ft, old_la)
            )

        eng.set_callbacks(ifetch_cb, observe_cb, evict_cb)
        t_sync = time.perf_counter_ns()
        stats["planes_ns"] = t_sync - t_planes
        eng.sync_in()
        stats["sync_ns"] += time.perf_counter_ns() - t_sync

        # ---- core loop state ----------------------------------------
        window = params.window
        nd = float(params.frontend_depth)
        li = 0.0
        lc = 0.0
        P = 0
        last_fb = hierarchy._last_ifetch_block
        warmup_instr = 0
        warmup_commit = 0.0
        warmup_pending = bool(warmup)

        if active_probes:
            mark_interval = min(probe.interval for probe in active_probes)
            next_mark = mark_interval
        else:
            mark_interval = 0
            next_mark = n + 1

        def flush_stats() -> None:
            d = eng.take_stats()
            hier_stats.demand_accesses += d["demand"]
            hier_stats.loads += d["loads"]
            hier_stats.stores += d["stores"]
            hier_stats.l1_hits += d["hits"]
            hier_stats.ifetch_accesses += d["ifetch"]
            hier_stats.l1_misses += d["l1m"]
            hier_stats.l2_demand_accesses += d["l2a"]
            hier_stats.l2_demand_hits += d["l2h"]
            hier_stats.l2_demand_misses += d["l2m"]
            hier_stats.prefetched_original += d["pfo"]
            hier_stats.useful_prefetches += d["useful"]
            hier_stats.mshr_merges += d["mgd"]
            hier_stats.writebacks_l1 += d["wb1"]
            hier_stats.writebacks_l2 += d["wb2"]
            hier_stats.prefetches_requested += d["pfr"]
            hier_stats.prefetches_issued += d["pfi"]
            hier_stats.prefetch_redundant += d["pfred"]
            hier_stats.prefetch_dropped_queue += d["pfdq"]
            hier_stats.prefetch_dropped_busy += d["pfdb"]
            hier_stats.prefetch_evicted_unused += d["pfev"]
            hier_stats.l1_promotions += d["l1p"]
            hier_stats.l1_promotion_hits += d["l1ph"]
            if native_trained:
                pstats = prefetcher.stats
                pstats.lookups += d["pfl"]
                pstats.updates += d["pfu"]
                pstats.predictions += d["pfp"]
            if tcp:
                tht.reads += d["tl"]
                tht.pushes += d["tp"]
                pht.updates += d["pu"]
                pht.lookups += d["pl"]
                pht.hits += d["ph"]
            if trainer == "tcp-stride":
                prefetcher.stride_predictions += d["sp"]
                prefetcher.detector.observations += d["dobs"]
                prefetcher.detector.strided_hits += d["dhits"]
            elif trainer == "tcp-conf":
                prefetcher.suppressed += d["sup"]
            elif trainer == "dbcp":
                prefetcher.dead_predictions += d["dead"]
            elif trainer == "hybrid":
                deadblock = prefetcher.deadblock
                prefetcher.promotions_approved += d["pa"]
                prefetcher.promotions_denied += d["pd"]
                deadblock.queries += d["dq"]
                deadblock.dead_verdicts += d["dv"]
                deadblock.evictions_recorded += d["de"]
            stats["callbacks_ifetch"] += d["cb_ifetch"]
            stats["callbacks_l1i_lookup"] += d["cb_l1i"]
            stats["callbacks_observe_miss"] += d["cb_observe"]
            stats["callbacks_evict"] += d["cb_evict"]
            # The reference assigns this from the MSHR file counter on
            # every primary miss; mirroring at the flush is idempotent.
            hier_stats.mshr_full_stalls = d["mshr_full_stalls"]
            stats["scalar_accesses"] += d["sc"]
            stats["epilogue_ns"] = d["epi_ns"]

        def sync_out() -> None:
            # Counters, the L1D lines and C's flat state -> Python.
            flush_stats()
            tl_ = tag_arr.tolist()
            lal_ = la_arr.tolist()
            ftl_ = ft_arr.tolist()
            dl_ = dirty_arr.tolist()
            pfl_ = pf_arr.tolist()
            for s2 in range(n_sets):
                t2 = tl_[s2]
                if t2 < 0:
                    continue
                line = l1_lines[s2]
                if line is None or line.tag != t2:
                    line = CacheLine(
                        t2, ftl_[s2], dirty=bool(dl_[s2]), prefetched=bool(pfl_[s2])
                    )
                    line.last_access = lal_[s2]
                    l1_lines[s2] = line
                else:
                    line.fill_time = ftl_[s2]
                    line.last_access = lal_[s2]
                    line.dirty = bool(dl_[s2])
                    line.prefetched = bool(pfl_[s2])
            eng.sync_out()

        def sync_in() -> None:
            # Probes may have mutated the live containers: C reloads its
            # mirrors, and the per-set dict cache and THT running sums
            # are rebuilt in place (C holds references to both).
            eng.sync_in()
            l2_entries[:] = [lru_._entries for lru_ in l2_sets]
            if tcp:
                tht_sums_arr[:] = [sum(r_) for r_ in tht_hist]

        i = 0
        while True:
            stop = n
            if warmup_pending and i < warmup:
                stop = warmup
            if next_mark < stop:
                stop = next_mark
            li, lc, nd, P, last_fb = eng.step(i, stop, li, lc, nd, P, last_fb)
            i = stop
            if i == next_mark:
                t_sync = time.perf_counter_ns()
                sync_out()
                stats["sync_ns"] += time.perf_counter_ns() - t_sync
                next_mark += mark_interval
                mark = CoreMark(i, n, i - P, window, lc, nd)
                for probe in active_probes:
                    probe.on_mark(mark, hierarchy)
                # Re-read the mirrored state: a probe-side fault
                # injection may have rewritten component state, and the
                # reference loop would observe that immediately.
                t_sync = time.perf_counter_ns()
                sync_in()
                stats["sync_ns"] += time.perf_counter_ns() - t_sync
            if warmup_pending and i == warmup:
                warmup_pending = False
                flush_stats()
                warmup_instr = int(instr_arr[warmup - 1])
                warmup_commit = lc
                hierarchy.mark_warmup_end()
            if i >= n:
                break

        t_sync = time.perf_counter_ns()
        sync_out()
        stats["sync_ns"] += time.perf_counter_ns() - t_sync
        total_instructions = trace.instruction_count
        trailing = total_instructions - int(instr_arr[n - 1])
        measured_instructions = total_instructions - warmup_instr
        cycles = lc + trailing / dispatch_rate - warmup_commit
        return CoreResult(measured_instructions, cycles, n - warmup)
