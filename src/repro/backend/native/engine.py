"""Batch-stepping core loop with the *compiled* scalar epilogue.

:class:`NativeCore` keeps the numpy engine's batch path verbatim —
whole-trace planes, predicted-hit runs stepped as vectorised batches,
post-hoc window/LSQ verification (see
:mod:`repro.backend.vector.engine` for the full methodology) — and
replaces the interpreted scalar epilogue with
:class:`repro.backend.native._native.Engine`: a C extension that runs
the flattened per-access miss path (lazy-deletion MSHR heap, THT
running-sum history, PHT truncated-add indexing, L2 set probe/fill/
LRU, prefetch issue) directly on the live Python containers, with the
trace planes, L1D state, and completion/commit timelines shared as
numpy buffers.  The C code performs the same IEEE double operations in
the same order as the reference loop, so results stay bit-identical.

Scalar stretches are handed to C as *ranges*: every batch cut or
predicted-miss cluster becomes one ``Engine.step(i, limit, ...)``
call, so the per-access cost of the epilogue drops from ~3-6 µs of
CPython interpretation to the C state machine plus one call per
stretch.

**DBCP and the hybrid** act on every access, hits included (DBCP
extends a signature and probes its table; the hybrid attempts pending
promotions and trains on promotion hits), so their runs skip the batch
path and step each whole span in C.  Their state is flat in C: DBCP's
signature table (ways in recency order), its live-signature map and
pending death signature; the hybrid's per-set pending promotions, the
L1 prefetched-bit plane, the timekeeping live-time table and the
dedicated prefetch bus.  The Python objects (the ``LRUSet`` tables,
``_live_signatures``, ``hierarchy._pending_l1``, ``CacheLine.prefetched``
and every counter) are written at each probe mark and at the end of
the run (``sync_out``) and reloaded after the probes ran (``sync_in``),
so probes and the sanitizer see, and may change, exactly the state the
reference loop would hold.  Reloading the 2 MB DBCP table costs a few
milliseconds per mark.

Python re-entries left, counted by kind in ``engine_stats``
(``callbacks_*``): instruction fetches that miss the L1I-resident set,
L1I recency refreshes, and, for prefetchers other than the TCP fast
path, DBCP and the hybrid, ``observe_miss`` and eviction hooks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

import numpy as np

from repro.backend.native import build
from repro.backend.vector.engine import (
    DEFAULT_VECTOR_MIN,
    VECTOR_RECURRENCE_MIN,
    _engine_stats,
    _trace_planes,
)
from repro.core.hybrid import HybridTCP
from repro.core.indexing import IndexFunction
from repro.core.tcp import TagCorrelatingPrefetcher
from repro.cpu.core import CoreParams, CoreResult
from repro.engine.events import EvictionEvent, MissEvent
from repro.engine.probes import CoreMark, Probe, resolve_probes
from repro.memory.cache import CacheLine
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.dbcp import DeadBlockCorrelatingPrefetcher
from repro.util.bitops import index_geometry
from repro.workloads.trace import Trace

__all__ = ["NativeCore"]


def _native_dbcp(prefetcher: object) -> bool:
    """The exact DBCP, whose signatures fit the C engine's 64-bit words."""
    return (
        type(prefetcher) is DeadBlockCorrelatingPrefetcher
        and prefetcher.config.signature_bits < 64
    )


def _native_hybrid(prefetcher: object) -> bool:
    """The exact hybrid, whose TCP training takes the compiled fast path."""
    return (
        type(prefetcher) is HybridTCP
        and prefetcher.pht.config.index_function is IndexFunction.TRUNCATED_ADD
    )


def _fallback_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why this run cannot take the compiled engine (None = it can).

    Access-stream observers and gated promotions run natively only for
    the exact DBCP and hybrid classes; subclasses and custom observers
    may override hooks the C engine does not call, so they stay on the
    reference loop.
    """
    prefetcher = hierarchy.prefetcher
    if hierarchy._l1_lines is None:
        return "set-associative L1D"
    if hierarchy._needs_access and not _native_dbcp(prefetcher):
        return "prefetcher observes the access stream"
    if hierarchy._promotions_enabled and not _native_hybrid(prefetcher):
        return "gated L1 promotions"
    if hierarchy.l2d._direct_mapped:
        return "direct-mapped L2"
    return None


class NativeCore:
    """Bit-exact core: batch path plus compiled epilogue, or whole-trace C.

    Valid for a direct-mapped L1D and a set-associative L2, with any
    prefetcher except access-stream observers and gated promotions
    other than the exact DBCP and hybrid classes (see
    :func:`_fallback_reason`).  The TCP variants and the non-TCP
    prefetchers still train through a Python ``observe_miss`` callback
    per miss.  Requires the ``_native`` extension to be importable (see
    :mod:`repro.backend.native.build`).
    """

    def __init__(
        self, params: CoreParams = CoreParams(), vector_min: int = DEFAULT_VECTOR_MIN
    ) -> None:
        if vector_min < 2:
            raise ValueError(f"vector_min must be at least 2, got {vector_min}")
        self.params = params
        self.vector_min = vector_min
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
        stats["epilogue_ns"] = 0
        # Python re-entries by kind: full instruction fetches, L1I
        # recency refreshes, generic observe_miss hooks, eviction hooks.
        for kind in ("ifetch", "l1i_lookup", "observe_miss", "evict"):
            stats["callbacks_" + kind] = 0

        # ---- whole-trace planes (shared with the numpy backend) -----
        geometry = hierarchy.params.l1d
        planes = _trace_planes(trace, hierarchy)
        indices_arr = planes["indices_arr"]
        instr_arr = planes["instr_arr"]
        load_arr = planes["load_arr"]
        store_arr = planes["store_arr"]
        arange_f = planes["arange_f"]
        miss_pos = planes["miss_pos"]
        n_miss = len(miss_pos)
        dep_nz = planes["dep_nz"]
        n_dep_nz = len(dep_nz)
        instr_l = planes["instr_l"]
        deps_l = planes["deps_l"]
        load_l = planes["load_l"]
        pcs_l = planes["pcs_l"]

        dispatch_rate = min(float(params.issue_width), trace.base_ipc)
        cached_incs = planes["incs"].get(dispatch_rate)
        if cached_incs is None:
            incs_arr = planes["steps_f"] / dispatch_rate
            cached_incs = (incs_arr, incs_arr.tolist())
            planes["incs"][dispatch_rate] = cached_incs
        incs_arr, _ = cached_incs

        model_icache = hierarchy.params.model_icache
        if model_icache:
            fb_l = planes["fb_l"]
            if fb_l[0] == hierarchy._last_ifetch_block:
                change_pos = planes["change_rest"]
            else:
                change_pos = [0] + planes["change_rest"]
        else:
            fb_l = []
            change_pos = []
        n_changes = len(change_pos)

        # Full-length completion/commit timelines, shared with C.
        completions_np = np.zeros(n, dtype=np.float64)
        commits_np = np.zeros(n, dtype=np.float64)

        # ---- L1D state planes + L1I residency -----------------------
        l1_lines = hierarchy._l1_lines
        n_sets = geometry.sets
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
        poisoned: set = set()

        l1i = hierarchy.l1i
        l1i_lookup = l1i.lookup
        l1i_bits, l1i_mask = index_geometry(hierarchy.params.l1i.sets)
        resident: set = set()  # L1I-resident fetch blocks (shared with C)
        last_fb = hierarchy._last_ifetch_block

        hier_stats = hierarchy.stats
        hp = hierarchy.params
        mshr = hierarchy.mshr
        l2_sets = hierarchy.l2d._sets
        l2_entries = [lru_._entries for lru_ in l2_sets]
        l1_ib = hierarchy._l1_index_bits

        prefetcher = hierarchy.prefetcher
        needs_evict = hierarchy._needs_evict
        observe_evict = prefetcher.observe_eviction if prefetcher else None
        observe_miss = prefetcher.observe_miss if prefetcher else None
        # DBCP and the hybrid act on every access, hits included, so
        # their runs skip the batch path and step the whole trace in C.
        dbcp = _native_dbcp(prefetcher)
        hybrid = _native_hybrid(prefetcher)
        pstats = prefetcher.stats if prefetcher else None
        whole_trace = dbcp or hybrid
        tcp_fast = hybrid or (
            type(prefetcher) is TagCorrelatingPrefetcher
            and prefetcher.pht.config.index_function is IndexFunction.TRUNCATED_ADD
            and not prefetcher.into_l1
        )
        if tcp_fast:
            tht = prefetcher.tht
            pht = prefetcher.pht
            tht_hist = tht._history
            tht_sums_arr = np.array(
                [sum(r_) for r_ in tht_hist], dtype=np.int64
            )
            scheme = pht._scheme
            spec_tcp = {
                "pht_sets": pht._sets,
                "tht_hist": tht_hist,
                "tht_sums": tht_sums_arr,
                "seq_mask": scheme._sequence_mask,
                "miss_mask": scheme._miss_mask,
                "n_bits": scheme.miss_index_bits,
                "tht_ib": tht.index_bits,
                "pht_ways": pht.config.ways,
                "pht_targets": pht.config.targets,
            }
        else:
            tht_hist = None
            tht_sums_arr = None
            spec_tcp = {
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
        spec_pf = {
            "dbcp": int(dbcp),
            "dbcp_obj": None,
            "dbcp_sets": None,
            "pcs": None,
            "hybrid": int(hybrid),
            "into_l1": int(hybrid and prefetcher.into_l1),
            "db_sets": None,
            "pb": hierarchy.prefetch_bus,
        }
        if dbcp:
            dcfg = prefetcher.config
            spec_pf.update({
                "dbcp_obj": prefetcher,
                "dbcp_sets": prefetcher._table,
                "dbcp_ways": dcfg.ways,
                "dbcp_shift": dcfg.sets.bit_length() - 1,
                "sig_mask": prefetcher._sig_mask,
                "pcs": np.ascontiguousarray(trace.pcs, dtype=np.uint64),
            })
        if hybrid:
            deadblock = prefetcher.deadblock
            bcfg = deadblock.config
            spec_pf.update({
                "db_sets": deadblock._history,
                "db_ways": bcfg.ways,
                "dead_factor": float(bcfg.dead_factor),
                "default_idle": float(bcfg.default_idle_threshold),
                "min_idle": float(bcfg.min_idle),
                "ttl": float(hp.promotion_ttl),
            })

        spec = {
            # trace planes
            "idx": indices_arr,
            "instr": instr_arr,
            "blocks": planes["blocks_arr"],
            "tags": planes["tags_arr"],
            "deps": planes["deps_arr"],
            "load": load_arr.view(np.uint8),
            "incs": incs_arr,
            "l2i": planes["l2i_arr"],
            "l2t": planes["l2t_arr"],
            "fb": planes["fb_arr"] if model_icache else None,
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
            "poisoned": poisoned,
            "resident": resident,
            "cacheline": CacheLine,
            "l1i_lookup": l1i_lookup,
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
            "tcp_fast": int(tcp_fast),
            "has_prefetcher": int(prefetcher is not None),
            "needs_evict": int(needs_evict),
        }
        spec.update(spec_tcp)
        spec.update(spec_pf)
        eng = native.Engine(spec)

        ifetch = hierarchy.instruction_fetch

        def ifetch_cb(nd_now: float, i_now: int) -> float:
            # The hierarchy's sequential-fetch tracker is stale (batched
            # and compiled steps bypass it); clear it so the real fetch
            # never early-outs.  Component state was synced by C.
            hierarchy._last_ifetch_block = -1
            pen = ifetch(nd_now, pcs_l[i_now])
            fb = fb_l[i_now]
            ii = fb & l1i_mask
            keep = [b for b in resident if (b & l1i_mask) != ii]
            resident.clear()
            resident.update(keep)
            for ln in l1i.resident_lines(ii):
                resident.add((ln.tag << l1i_bits) | ii)
            return pen

        def observe_cb(s, tag, block, i_now, store, v):
            requests = observe_miss(
                MissEvent(s, tag, block, pcs_l[i_now], store, v)
            )
            if not requests:
                return None
            return [req.block for req in requests]

        def evict_cb(s, vt, comp, old_ft, old_la):
            observe_evict(
                EvictionEvent(s, vt, (vt << l1_ib) | s, comp, old_ft, old_la)
            )

        eng.set_callbacks(ifetch_cb, observe_cb, evict_cb)
        eng.sync_in()

        # ---- core loop state ----------------------------------------
        window = params.window
        lsq = params.lsq
        ls_s = 1.0 / params.ls_units
        inv_cr = 1.0 / float(params.issue_width)
        l1_lat = hierarchy._l1_latency
        l1_lat_f = float(l1_lat)
        nd = float(params.frontend_depth)
        li = 0.0
        lc = 0.0
        P = 0
        warmup_instr = 0
        warmup_commit = 0.0
        warmup_pending = bool(warmup)

        if active_probes:
            mark_interval = min(probe.interval for probe in active_probes)
            next_mark = mark_interval
        else:
            mark_interval = 0
            next_mark = n + 1

        # Batch-path stat deltas (the compiled epilogue keeps its own;
        # both are flushed together at every span boundary).
        dc = ldc = stc = hc = ifc = 0

        def flush_stats() -> None:
            nonlocal dc, ldc, stc, hc, ifc
            if dc:
                hier_stats.demand_accesses += dc
                hier_stats.loads += ldc
                hier_stats.stores += stc
                hier_stats.l1_hits += hc
                dc = ldc = stc = hc = 0
            if ifc:
                hier_stats.ifetch_accesses += ifc
                ifc = 0
            d = eng.take_stats()
            if d["demand"]:
                hier_stats.demand_accesses += d["demand"]
                hier_stats.loads += d["loads"]
                hier_stats.stores += d["stores"]
                hier_stats.l1_hits += d["hits"]
            if d["ifetch"]:
                hier_stats.ifetch_accesses += d["ifetch"]
            # Prefetches and promotions also happen on hits (DBCP's
            # access stream, the hybrid's promotions), so every counter
            # is flushed, not only after a miss.
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
            if tcp_fast or dbcp:
                pstats.lookups += d["pfl"]
                pstats.updates += d["pfu"]
                pstats.predictions += d["pfp"]
            if tcp_fast:
                tht.reads += d["tl"]
                tht.pushes += d["tp"]
                pht.updates += d["pu"]
                pht.lookups += d["pl"]
                pht.hits += d["ph"]
            if dbcp:
                prefetcher.dead_predictions += d["dead"]
            if hybrid:
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
            if d["poisoned_peak"] > stats["poisoned_sets_peak"]:
                stats["poisoned_sets_peak"] = d["poisoned_peak"]
            stats["epilogue_ns"] = d["epi_ns"]

        def sync_planes() -> None:
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

        def reload_derived() -> None:
            # Mirrors VectorCore.load_shared's derived-cache rebuilds:
            # probes may have mutated the live containers, so the per-
            # set dict cache and THT running sums are recomputed (in
            # place — the C engine holds references to both).
            eng.sync_in()
            l2_entries[:] = [lru_._entries for lru_ in l2_sets]
            if tcp_fast:
                tht_sums_arr[:] = [sum(r_) for r_ in tht_hist]

        vec_min = self.vector_min
        vec_ok = True
        vec_fails = 0
        m_ptr = 0
        no_vec_until = 0
        i = 0

        while True:
            stop = n
            if warmup_pending and i < warmup:
                stop = warmup
            if next_mark < stop:
                stop = next_mark

            # ================= span [i, stop) ========================
            if whole_trace:
                li, lc, nd, P, last_fb = eng.step(i, stop, li, lc, nd, P, last_fb)
                i = stop
            while i < stop:
                # ---- batch attempt (identical to VectorCore) ----
                if i >= no_vec_until:
                    while m_ptr < n_miss and miss_pos[m_ptr] < i:
                        m_ptr += 1
                    r0 = miss_pos[m_ptr] if m_ptr < n_miss else n
                    if r0 > stop:
                        r0 = stop
                    if poisoned and r0 - i >= vec_min:
                        bad = np.isin(
                            indices_arr[i:r0],
                            np.fromiter(poisoned, dtype=np.int64, count=len(poisoned)),
                        )
                        if bad.any():
                            r0 = i + int(np.argmax(bad))
                    seg_changes = []
                    ifetch_cut = False
                    if model_icache and r0 - i >= vec_min:
                        a = bisect_left(change_pos, i)
                        while a < n_changes:
                            pos = change_pos[a]
                            if pos >= r0:
                                break
                            if fb_l[pos] not in resident:
                                r0 = pos
                                ifetch_cut = True
                                break
                            seg_changes.append(pos)
                            a += 1
                    if r0 - i >= vec_min:
                        p = i
                        seg = r0 - p
                        d = incs_arr[p:r0].copy()
                        d[0] += nd
                        np.cumsum(d, out=d)
                        d_l = d.tolist()
                        li0 = li
                        lc0 = lc
                        done_vec = False
                        if vec_ok and seg >= VECTOR_RECURRENCE_MIN:
                            a2 = bisect_left(dep_nz, p)
                            if a2 >= n_dep_nz or dep_nz[a2] >= r0:
                                off = arange_f[:seg] * ls_s
                                u = d - off
                                seed = li + ls_s
                                if seed > u[0]:
                                    u[0] = seed
                                np.maximum.accumulate(u, out=u)
                                iss_v = u + off
                                comp_v = iss_v + np.where(
                                    load_arr[p:r0], l1_lat_f, 1.0
                                )
                                chk = np.empty(seg)
                                chk[0] = li
                                chk[1:] = iss_v[:-1]
                                chk += ls_s
                                np.maximum(chk, d, out=chk)
                                if np.array_equal(iss_v, chk):
                                    offc = arange_f[:seg] * inv_cr
                                    uc = comp_v - offc
                                    seedc = lc + inv_cr
                                    if seedc > uc[0]:
                                        uc[0] = seedc
                                    np.maximum.accumulate(uc, out=uc)
                                    cmt_v = uc + offc
                                    chk[0] = lc
                                    chk[1:] = cmt_v[:-1]
                                    chk += inv_cr
                                    np.maximum(chk, comp_v, out=chk)
                                    if np.array_equal(cmt_v, chk):
                                        iss_seg = iss_v.tolist()
                                        comp_seg = comp_v.tolist()
                                        cmt_seg = cmt_v.tolist()
                                        li = iss_seg[-1]
                                        lc = cmt_seg[-1]
                                        done_vec = True
                                        stats["vector_batches"] += 1
                                if not done_vec:
                                    vec_fails += 1
                                    stats["vector_fallbacks"] += 1
                                    if vec_fails >= 2:
                                        vec_ok = False
                        if not done_vec:
                            dep_seg = deps_l[p:r0]
                            load_seg = load_l[p:r0]
                            iss_seg = []
                            comp_seg = []
                            cmt_seg = []
                            ap_i = iss_seg.append
                            ap_c = comp_seg.append
                            ap_m = cmt_seg.append
                            for j in range(seg):
                                v = li + ls_s
                                dv = d_l[j]
                                if dv > v:
                                    v = dv
                                dep = dep_seg[j]
                                if dep:
                                    jj = j - dep
                                    c = (
                                        comp_seg[jj]
                                        if jj >= 0
                                        else float(completions_np[p + jj])
                                    )
                                    if c > v:
                                        v = c
                                li = v
                                ap_i(v)
                                if load_seg[j]:
                                    c = v + l1_lat
                                else:
                                    c = v + 1.0
                                ap_c(c)
                                m = lc + inv_cr
                                if c > m:
                                    m = c
                                lc = m
                                ap_m(m)
                        if done_vec:
                            commits_np[p:r0] = cmt_v
                        else:
                            commits_np[p:r0] = cmt_seg
                        floors = instr_arr[p:r0] - window
                        js = np.searchsorted(instr_arr[:r0], floors, side="right")
                        js -= 1
                        prev = np.empty(seg, dtype=np.int64)
                        prev[0] = P - 1
                        prev[1:] = js[:-1]
                        np.maximum(prev, P - 1, out=prev)
                        elig = js > prev
                        cut = seg
                        cut_kind = 0
                        if elig.any():
                            cand = np.flatnonzero(elig)
                            lifted = commits_np[js[cand]] > d[cand]
                            if lifted.any():
                                cut = int(cand[np.argmax(lifted)])
                                cut_kind = 1
                        j0 = lsq if p < lsq else p
                        if j0 < r0:
                            lsq_viol = commits_np[j0 - lsq : r0 - lsq] > d[j0 - p :]
                            if lsq_viol.any():
                                lcut = (j0 - p) + int(np.argmax(lsq_viol))
                                if lcut < cut:
                                    cut = lcut
                                    cut_kind = 2
                        if cut == 0:
                            li = li0
                            lc = lc0
                            no_vec_until = p + 1
                            if cut_kind == 1:
                                stats["batch_cuts_window"] += 1
                            else:
                                stats["batch_cuts_lsq"] += 1
                            continue
                        k = cut
                        r = p + k
                        completions_np[p:r] = comp_seg[:k]
                        commits_np[p:r] = cmt_seg[:k]
                        if k < seg:
                            li = iss_seg[k - 1]
                            lc = cmt_seg[k - 1]
                            no_vec_until = r + 1
                            if cut_kind == 1:
                                stats["batch_cuts_window"] += 1
                            else:
                                stats["batch_cuts_lsq"] += 1
                        elif ifetch_cut:
                            no_vec_until = r + 1
                            stats["batch_cuts_ifetch"] += 1
                        nd = d_l[k - 1]
                        P_new = int(js[k - 1]) + 1
                        if P_new > P:
                            P = P_new
                        # ---- state planes + stats ---------------
                        si = indices_arr[p:r]
                        iss_np = iss_v[:k] if done_vec else np.asarray(iss_seg[:k])
                        # Fancy assignment with duplicate indices keeps
                        # the LAST value per index — the last touch each
                        # set needs (plane arrays are shared with C, so
                        # the write is direct).
                        la_arr[si] = iss_np
                        smask = store_arr[p:r]
                        nst = int(np.count_nonzero(smask))
                        if nst:
                            dirty_arr[si[smask]] = 1
                        dc += k
                        hc += k
                        stc += nst
                        ldc += k - nst
                        if seg_changes:
                            touched = {}
                            ch = 0
                            for pos in seg_changes:
                                if pos >= r:
                                    break
                                touched[fb_l[pos]] = pos
                                ch += 1
                            if ch:
                                ifc += ch
                                for b, pos in sorted(
                                    touched.items(), key=lambda kv: kv[1]
                                ):
                                    l1i_lookup(
                                        b & l1i_mask, b >> l1i_bits, False, d_l[pos - p]
                                    )
                        if model_icache:
                            last_fb = fb_l[r - 1]
                        stats["batched_accesses"] += k
                        stats["batches"] += 1
                        i = r
                        continue
                    # Short run: the whole stretch up to (and including)
                    # the predicted miss goes through the compiled
                    # epilogue as one range.
                    no_vec_until = r0 + 1 if r0 < stop else r0
                    if no_vec_until <= i:
                        no_vec_until = i + 1

                # ---- compiled scalar epilogue: one range --------
                limit = no_vec_until if no_vec_until > i else i + 1
                if limit > stop:
                    limit = stop
                li, lc, nd, P, last_fb = eng.step(
                    i, limit, li, lc, nd, P, last_fb
                )
                i = limit

            # ================= span boundary =========================
            if i == next_mark:
                flush_stats()
                sync_planes()
                eng.sync_out()
                next_mark += mark_interval
                mark = CoreMark(i, n, i - P, window, lc, nd)
                for probe in active_probes:
                    probe.on_mark(mark, hierarchy)
                # Re-read the mirrored scalars: a probe-side fault
                # injection may have rewritten component state, and the
                # reference loop would observe that immediately.
                reload_derived()
            if warmup_pending and i == warmup:
                warmup_pending = False
                flush_stats()
                warmup_instr = instr_l[warmup - 1]
                warmup_commit = lc
                hierarchy.mark_warmup_end()
            if i >= n:
                break

        flush_stats()
        sync_planes()
        eng.sync_out()
        total_instructions = trace.instruction_count
        trailing = total_instructions - instr_l[n - 1]
        measured_instructions = total_instructions - warmup_instr
        cycles = lc + trailing / dispatch_rate - warmup_commit
        return CoreResult(measured_instructions, cycles, n - warmup)
