"""Scalar-epilogue edge cases, differential across every backend.

The numpy and native backends share one epilogue specification — the
inlined miss path (MSHR, L2, buses, prefetch issue) plus the TCP fast
path (THT running sums, PHT truncated-add indexing).  These tests aim
adversarial traces at the three mechanisms most likely to diverge
between the Python and C transcriptions of that specification:

* the MSHR's lazy-deletion ready heap under merge storms — repeated
  same-block misses merging into in-flight entries while a tiny MSHR
  forces full-stall reaping of stale heap entries;
* the THT running-sum update at history length ``k`` — the sum is
  maintained incrementally (``sum - oldest + newest``) and must stay
  exact as tags rotate out of the window, for any ``k``;
* PHT truncated-add collisions — a tiny PHT where distinct tag
  sequences alias onto the same set, exercising eviction, successor
  MRU rotation, and collision-polluted predictions.

Each test also asserts the targeted machinery actually engaged on the
reference run, so a regression that silently bypasses the mechanism
(rather than diverging on it) still fails.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.native import build as native_build
from repro.core.hybrid import HybridTCP
from repro.core.pht import PHTConfig
from repro.core.tcp import TCPConfig, TagCorrelatingPrefetcher
from repro.core.variants import (
    ConfidenceFilteredTCP,
    LookaheadTCP,
    StrideFilteredTCP,
)
from repro.cpu.core import CoreParams
from repro.deadblock import DeadBlockConfig
from repro.engine.probes import Probe
from repro.memory import MemoryHierarchy
from repro.memory.hierarchy import HierarchyParams
from repro.prefetchers.dbcp import DBCPConfig, DeadBlockCorrelatingPrefetcher
from repro.prefetchers.markov import MarkovConfig, MarkovPrefetcher, _MarkovEntry
from repro.prefetchers.stream import (
    StreamBufferConfig,
    StreamBufferPrefetcher,
    _Stream,
)
from repro.prefetchers.stride import StrideConfig, StridePrefetcher, _RPTEntry
from repro.sim.config import SimulationConfig
from repro.workloads import Trace

CONTENDERS = ("numpy", "native")


def _require(contender: str) -> None:
    if contender == "native" and native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")


def _trace(addrs, pcs=None, loads=None, gaps=None, deps=None, name="edge"):
    n = len(addrs)
    return Trace(
        name=name,
        addrs=np.asarray(addrs, dtype=np.uint64),
        pcs=(
            np.asarray(pcs, dtype=np.uint64)
            if pcs is not None
            else np.zeros(n, dtype=np.uint64)
        ),
        is_load=(
            np.asarray(loads, dtype=bool)
            if loads is not None
            else np.ones(n, dtype=bool)
        ),
        gaps=(
            np.asarray(gaps, dtype=np.int64)
            if gaps is not None
            else np.zeros(n, dtype=np.int64)
        ),
        deps=(
            np.asarray(deps, dtype=np.int64)
            if deps is not None
            else np.zeros(n, dtype=np.int64)
        ),
    )


def _run(backend_name, trace, hierarchy_params, make_prefetcher, params=None):
    machine = MemoryHierarchy(hierarchy_params)
    machine.attach_prefetcher(make_prefetcher())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = get_backend(backend_name).run(
            trace, machine, params or CoreParams()
        )
    return result, machine


def _assert_parity(contender, trace, hierarchy_params, make_prefetcher,
                   params=None):
    """Run reference + contender; return the reference machine (for
    engagement assertions)."""
    ref, ref_machine = _run(
        "python", trace, hierarchy_params, make_prefetcher, params
    )
    new, new_machine = _run(
        contender, trace, hierarchy_params, make_prefetcher, params
    )
    assert new == ref
    assert new_machine.stats == ref_machine.stats
    return ref_machine


def _null_prefetcher():
    config = SimulationConfig.for_prefetcher("none")
    return config.build_prefetcher()


def _nextline_prefetcher():
    config = SimulationConfig.for_prefetcher("nextline")
    return config.build_prefetcher()


class TestMSHRMergeStorms:
    """The lazy-deletion ready heap: stale entries accumulate as blocks
    are merged into and deleted from the MSHR dict; a full MSHR must
    reap them in exactly the reference order."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("mshr_entries", (2, 3, 4))
    def test_merge_storm_with_tiny_mshr(self, contender, mshr_entries):
        _require(contender)
        # Same-set tag ping-pong: each fill conflict-evicts the other
        # tag, which re-misses while its original fetch is still in
        # flight — an MSHR merge (the MSHR is keyed by L1 block).
        # Every non-merged miss acquires an entry, so a tiny MSHR also
        # full-stalls and reaps, leaving dict deletions ahead of lazy
        # heap deletions.
        rng = np.random.default_rng(11)
        n = 3000
        sets = rng.integers(0, 4, n).astype(np.uint64)
        tags = rng.integers(0, 2, n).astype(np.uint64)
        addrs = (tags << np.uint64(15)) | (sets << np.uint64(5))
        trace = _trace(addrs, gaps=np.zeros(n, dtype=np.int64))
        hp = HierarchyParams(mshr_entries=mshr_entries)
        machine = _assert_parity(contender, trace, hp, _null_prefetcher)
        assert machine.stats.mshr_merges > 0
        assert machine.stats.mshr_full_stalls > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_merge_storm_with_prefetch_traffic(self, contender):
        """Prefetch fills race demand misses for the same blocks while
        the MSHR thrashes — in-flight prefetch expiry and MSHR reaping
        interleave."""
        _require(contender)
        rng = np.random.default_rng(13)
        n = 4000
        sets = rng.integers(0, 16, n).astype(np.uint64)
        tags = rng.integers(0, 2, n).astype(np.uint64)
        addrs = (tags << np.uint64(15)) | (sets << np.uint64(5))
        trace = _trace(addrs)
        hp = HierarchyParams(mshr_entries=2, max_outstanding_prefetches=4)
        machine = _assert_parity(contender, trace, hp, _nextline_prefetcher)
        assert machine.stats.mshr_merges > 0
        assert machine.stats.mshr_full_stalls > 0
        assert machine.stats.prefetches_issued > 0


def _tcp_prefetcher(history_length, pht_sets=256, pht_ways=8):
    def make():
        pht = PHTConfig(sets=pht_sets, ways=pht_ways, miss_index_bits=0)
        return TagCorrelatingPrefetcher(
            TCPConfig(history_length=history_length, pht=pht)
        )

    return make


def _tag_rotation_trace(n_tags, n=4000, sets=3):
    """Misses rotating through ``n_tags`` distinct L1 tags over a few
    sets: every miss pushes a tag out of the THT window, so the
    running sum is exercised at each length-``k`` boundary."""
    i = np.arange(n, dtype=np.uint64)
    tag = (i * np.uint64(7)) % np.uint64(n_tags)
    index = i % np.uint64(sets)
    # L1 is 32 KB direct-mapped, 32 B blocks: 1024 sets, tag above bit 15.
    addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
    return _trace(addrs, gaps=np.full(n, 1, dtype=np.int64))


class TestTHTRunningSum:
    """The incremental THT row sum must stay exact while tags rotate
    through the length-``k`` history window."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("history_length", (1, 2, 4, 7))
    def test_rotation_at_history_length_k(self, contender, history_length):
        _require(contender)
        trace = _tag_rotation_trace(n_tags=max(history_length + 1, 5))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(history_length),
        )
        prefetcher = machine.prefetcher
        assert prefetcher.stats.updates > 0
        assert prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_repeating_pair_saturates_window(self, contender):
        """Exactly k distinct tags cycling: after warmup every push
        re-inserts a tag that just left the window — the running sum
        must land back on the same value, never drift."""
        _require(contender)
        trace = _tag_rotation_trace(n_tags=2, n=3000, sets=1)
        machine = _assert_parity(
            contender, trace, HierarchyParams(), _tcp_prefetcher(2)
        )
        assert machine.prefetcher.stats.predictions > 0


class TestPHTTruncatedAdd:
    """Truncated-add indexing into a deliberately tiny PHT: distinct
    sequences alias onto the same set, forcing evictions, successor
    rotation, and collision-polluted predictions — all of which must
    stay bit-identical."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("pht_sets,pht_ways", ((2, 2), (4, 1), (8, 4)))
    def test_collisions_in_tiny_pht(self, contender, pht_sets, pht_ways):
        _require(contender)
        rng = np.random.default_rng(17)
        n = 4000
        tag = rng.integers(0, 40, n).astype(np.uint64)
        index = rng.integers(0, 4, n).astype(np.uint64)
        addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
        trace = _trace(addrs, gaps=np.full(n, 1, dtype=np.int64))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(2, pht_sets=pht_sets, pht_ways=pht_ways),
        )
        prefetcher = machine.prefetcher
        assert prefetcher.stats.updates > 0
        assert prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_colliding_sums_same_set(self, contender):
        """Tag pairs chosen so different sequences share a truncated
        sum modulo the set count: successor lists for distinct
        sequences interleave in one PHT set."""
        _require(contender)
        # With sets=2, sequences whose tag-sums differ by 2 collide.
        pattern = np.array([1, 3, 5, 7, 2, 4, 6, 8], dtype=np.uint64)
        tag = np.tile(pattern, 500)
        addrs = (tag << np.uint64(15)) | (np.uint64(1) << np.uint64(5))
        trace = _trace(addrs, gaps=np.ones(len(tag), dtype=np.int64))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(2, pht_sets=2, pht_ways=2),
        )
        assert machine.prefetcher.stats.predictions > 0


# ----------------------------------------------------------------------
# DBCP and the hybrid: the access-stream and promotion state machines
# ----------------------------------------------------------------------


def _lines(machine):
    return [
        None if line is None
        else (line.tag, line.dirty, line.prefetched, line.fill_time, line.last_access)
        for line in machine._l1_lines
    ]


def _table(sets, value=lambda v: v):
    """A list of LRUSets as plain data, in recency order."""
    return [[(k, value(v)) for k, v in lru.items()] for lru in sets]


def _private_state(p):
    """The Python-side tables and counters of every trainer C runs, as
    plain data (copied: the live objects keep changing)."""
    state = {}
    if isinstance(p, DeadBlockCorrelatingPrefetcher):
        state["table"] = _table(p._table)
        state["live"] = list(p._live_signatures.items())
        state["pending_death"] = p._pending_death_signature
        state["dead_predictions"] = p.dead_predictions
    if isinstance(p, StridePrefetcher):
        state["rpt"] = _table(p._sets, lambda e: (e.last_block, e.stride, e.state))
    if isinstance(p, StreamBufferPrefetcher):
        state["streams"] = [
            None if b is None else (b.next_block, b.last_use) for b in p._streams
        ]
    if isinstance(p, MarkovPrefetcher):
        state["markov"] = _table(p._sets, lambda e: list(e.successors))
        state["previous"] = p._previous_block
    if isinstance(p, TagCorrelatingPrefetcher):
        state["tht"] = list(p.tht._history)
        state["pht"] = _table(p.pht._sets, list)
        state["tcp_counts"] = (
            p.tht.reads, p.tht.pushes, p.pht.updates, p.pht.lookups, p.pht.hits,
        )
    if isinstance(p, StrideFilteredTCP):
        d = p.detector
        state["detector"] = (list(d._state), d.observations, d.strided_hits)
        state["stride_predictions"] = p.stride_predictions
    if isinstance(p, ConfidenceFilteredTCP):
        state["confidence"] = list(p._confidence.items())
        state["suppressed"] = p.suppressed
    if isinstance(p, HybridTCP):
        d = p.deadblock
        state["history"] = _table(d._history)
        state["gate"] = (
            p.promotions_approved, p.promotions_denied,
            d.queries, d.dead_verdicts, d.evictions_recorded,
        )
    return state


def _prefetcher_state(machine):
    """Everything the prefetcher keeps in Python, in dict order: the
    native engine must leave the same objects behind."""
    p = machine.prefetcher
    state = {
        "stats": vars(p.stats).copy(),
        "l1": _lines(machine),
        "pending_l1": list(machine._pending_l1.items()),
    }
    state.update(_private_state(p))
    return state


class _Snapshots(Probe):
    """Records the promotion plane and the prefetcher's tables and
    counters after every access: a divergence the reference heals on
    the next access to the same set still shows.  (A mark after every
    access also turns the numpy batch path off.)"""

    interval = 1

    def __init__(self):
        self.seen = []

    def on_mark(self, mark, hierarchy):
        p = hierarchy.prefetcher
        self.seen.append((
            list(hierarchy._pending_l1.items()),
            hierarchy.stats.l1_promotions,
            vars(p.stats).copy(),
            _private_state(p),
        ))


def _state_parity(contender, trace, hierarchy_params, make_prefetcher,
                  reference_machine=None, probes=None):
    """Reference + contender, comparing results, counters, and the
    prefetcher's Python-side state — after every access and at the end;
    returns the reference machine."""
    ref_machine = reference_machine or MemoryHierarchy(hierarchy_params)
    if ref_machine.prefetcher is None:
        ref_machine.attach_prefetcher(make_prefetcher())
    machine = MemoryHierarchy(hierarchy_params)
    machine.attach_prefetcher(make_prefetcher())
    results, snapshots = [], []
    for name, m in (("python", ref_machine), (contender, machine)):
        snapshots.append(_Snapshots())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results.append(get_backend(name).run(
                trace, m, CoreParams(),
                probes=(probes() if probes else []) + [snapshots[-1]],
            ))
    assert results[1] == results[0]
    assert machine.stats == ref_machine.stats
    assert snapshots[1].seen == snapshots[0].seen
    assert _prefetcher_state(machine) == _prefetcher_state(ref_machine)
    return ref_machine


def _dbcp(sets=2, ways=2):
    return lambda: DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=sets, ways=ways))


def _dbcp_ledger(prefetcher):
    """Instrument a reference-run DBCP: count the events a test aims at."""
    counts = Counter()
    cfg = prefetcher.config
    shift = cfg.sets.bit_length() - 1
    probe, learn = prefetcher._probe, prefetcher._learn
    observe_access, observe_miss = prefetcher.observe_access, prefetcher.observe_miss
    last = [None]

    def _probe(signature):
        last[0] = probe(signature)
        return last[0]

    def _learn(signature, successor):
        lru = prefetcher._table[signature & (cfg.sets - 1)]
        if signature >> shift not in lru and len(lru) >= lru.ways:
            counts["table-evict"] += 1
        learn(signature, successor)

    def _observe_access(access):
        last[0] = None
        requests = observe_access(access)
        if last[0] is not None and last[0] == access.block:
            counts["self-successor"] += 1
        return requests

    def _observe_miss(miss):
        if prefetcher._pending_death_signature is not None:
            counts["pending-consumed"] += 1
        return observe_miss(miss)

    prefetcher._probe = _probe
    prefetcher._learn = _learn
    prefetcher.observe_access = _observe_access
    prefetcher.observe_miss = _observe_miss
    return counts


def _reference_dbcp(hp, make_prefetcher):
    machine = MemoryHierarchy(hp)
    prefetcher = make_prefetcher()
    counts = _dbcp_ledger(prefetcher)
    machine.attach_prefetcher(prefetcher)
    return machine, counts


def _set_trace(n_tags, n, sets=4, seed=0, pcs=16, gap=2):
    """Random tags over a few L1 sets with a handful of PCs."""
    rng = np.random.default_rng(seed)
    tags = rng.integers(0, n_tags, n).astype(np.uint64)
    index = rng.integers(0, sets, n).astype(np.uint64)
    addrs = (tags << np.uint64(15)) | (index << np.uint64(5))
    return _trace(
        addrs,
        pcs=rng.integers(0, pcs, n).astype(np.uint64) * np.uint64(4),
        loads=rng.random(n) < 0.8,
        gaps=np.full(n, gap, dtype=np.int64),
    )


class TestDBCPEdges:
    """DBCP's flat signature table and live-signature map against the
    LRUSet/dict reference, on a deliberately tiny table."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("sets,ways", ((1, 2), (2, 2), (4, 1)))
    def test_table_set_evicts_at_way_limit(self, contender, sets, ways):
        _require(contender)
        hp = HierarchyParams()
        trace = _set_trace(n_tags=12, n=3000, seed=sets * 10 + ways)
        ref, counts = _reference_dbcp(hp, _dbcp(sets, ways))
        _state_parity(contender, trace, hp, _dbcp(sets, ways), ref)
        assert counts["table-evict"] > 0
        assert all(len(lru) == ways for lru in ref.prefetcher._table)
        assert ref.prefetcher.dead_predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_successor_equal_to_block_is_suppressed(self, contender):
        """Blocks A and B share an L1 set and A + pc_A == B + pc_B, so B's
        miss signature is A's death signature, whose learned successor
        is B itself: the probe promotes the entry but predicts nothing."""
        a, b = (3 << 10) | 5, (9 << 10) | 5
        k = 64
        rounds = 40
        blocks = np.array([a, b, b] * rounds, dtype=np.uint64)
        pcs = np.array([b - a + k, k, 4] * rounds, dtype=np.uint64)
        trace = _trace(blocks << np.uint64(5), pcs=pcs, gaps=np.full(len(blocks), 40))
        hp = HierarchyParams()
        _require(contender)
        ref, counts = _reference_dbcp(hp, _dbcp(4, 2))
        _state_parity(contender, trace, hp, _dbcp(4, 2), ref)
        assert counts["self-successor"] > 0
        assert ref.prefetcher.dead_predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_stale_live_signature_after_mshr_merge(self, contender):
        """A miss that merges into an in-flight fetch records a signature
        but fills nothing: the entry outlives the block's residency."""
        _require(contender)
        rng = np.random.default_rng(23)
        n = 3000
        sets = rng.integers(0, 4, n).astype(np.uint64)
        tags = rng.integers(0, 2, n).astype(np.uint64)
        addrs = (tags << np.uint64(15)) | (sets << np.uint64(5))
        pcs = rng.integers(0, 8, n).astype(np.uint64) * np.uint64(4)
        trace = _trace(addrs, pcs=pcs)
        hp = HierarchyParams(mshr_entries=4)
        ref = _state_parity(contender, trace, hp, _dbcp(2, 2))
        assert ref.stats.mshr_merges > 0
        ib = hp.l1d.index_bits
        resident = {
            (line.tag << ib) | s
            for s, line in enumerate(ref._l1_lines) if line is not None
        }
        assert set(ref.prefetcher._live_signatures) - resident

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_pending_death_signature_consumed_by_next_miss(self, contender):
        _require(contender)
        hp = HierarchyParams()
        trace = _set_trace(n_tags=6, n=2000, sets=2, seed=29)
        ref, counts = _reference_dbcp(hp, _dbcp(8, 4))
        _state_parity(contender, trace, hp, _dbcp(8, 4), ref)
        assert counts["pending-consumed"] == ref.prefetcher.stats.updates > 0
        assert ref.prefetcher._pending_death_signature is None


class _PromotionLedger(MemoryHierarchy):
    """Reference machine that classifies how pending promotions end and
    which paths register them."""

    __slots__ = ("counts", "_after_promote")

    def __init__(self, params=None):
        super().__init__(params)
        self.counts = Counter()
        self._after_promote = None

    def attach_prefetcher(self, prefetcher):
        super().attach_prefetcher(prefetcher)
        deadblock = prefetcher.deadblock
        is_dead = deadblock.is_dead
        counts = self.counts

        def _is_dead(block, fill_time, last_access, now):
            known = deadblock._lookup(block).peek(block) is not None
            dead = is_dead(block, fill_time, last_access, now)
            if not dead and now - last_access >= deadblock.config.min_idle:
                counts["denied-history" if known else "denied-default"] += 1
            return dead

        deadblock.is_dead = _is_dead

    def _try_promote(self, index, now):
        pending = self._pending_l1.get(index)
        promoted = self.stats.l1_promotions
        super()._try_promote(index, now)
        after = self._pending_l1.get(index)
        self._after_promote = after
        if pending is None or self.stats.l1_promotions != promoted:
            return
        if after is None and now - pending[1] > self.params.promotion_ttl:
            self.counts["ttl-expired"] += 1

    def access_time(self, now, index, tag, block, is_write, pc):
        self._after_promote = self._pending_l1.get(index)
        misses = self.stats.l1_misses
        completion = super().access_time(now, index, tag, block, is_write, pc)
        after = self._after_promote
        if (
            self.stats.l1_misses != misses
            and after is not None
            and after[0] == block
            and index not in self._pending_l1
        ):
            # the miss cancelled the promotion and nothing re-pended the
            # set, so the cancellation shows in the next snapshot
            self.counts["demand-beat"] += 1
        return completion

    def issue_prefetch(self, request, now):
        l2_block = request.block >> self._l2_shift
        if request.into_l1 and self.l2d.probe(
            l2_block & self._l2_index_mask, l2_block >> self._l2_index_bits
        ) is not None:
            self.counts["redundant-into-l1"] += 1
        return super().issue_prefetch(request, now)


def _hybrid(db=None, pht_sets=16):
    def make():
        pht = PHTConfig(sets=pht_sets, ways=4, miss_index_bits=0)
        return HybridTCP(TCPConfig(pht=pht), deadblock=db or _TINY_DEADBLOCK)

    return make


#: a small history table with thresholds low enough that synthetic
#: traces reach both verdicts.
_TINY_DEADBLOCK = DeadBlockConfig(
    sets=4, ways=2, dead_factor=2.0, default_idle_threshold=96.0, min_idle=16.0
)


def _hybrid_run(contender, trace, hp, make_prefetcher):
    ref = _PromotionLedger(hp)
    ref.attach_prefetcher(make_prefetcher())
    _state_parity(contender, trace, hp, make_prefetcher, ref)
    return ref


def _cyclic_trace(n, sets=4, tags=5, gap=6, seed=0):
    """Each set cycles through a fixed tag sequence — the TCP learns it
    and predicts (into L1) the tag that follows."""
    rng = np.random.default_rng(seed)
    i = np.arange(n, dtype=np.uint64)
    index = rng.integers(0, sets, n).astype(np.uint64)
    tag = (i // np.uint64(sets)) % np.uint64(tags)
    addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
    return _trace(
        addrs,
        pcs=rng.integers(0, 8, n).astype(np.uint64) * np.uint64(4),
        loads=rng.random(n) < 0.85,
        gaps=rng.integers(0, 2 * gap, n).astype(np.int64),
    )


class TestHybridEdges:
    """The hybrid's pending-promotion plane, timekeeping gate, prefetch
    bus and virtual-miss training against the reference hierarchy."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("ttl", (0.0, 24.0))
    def test_ttl_expiry(self, contender, ttl):
        _require(contender)
        hp = HierarchyParams(dedicated_prefetch_bus=True, promotion_ttl=ttl)
        trace = _cyclic_trace(3000, gap=30, seed=1)
        ref = _hybrid_run(contender, trace, hp, _hybrid())
        assert ref.counts["ttl-expired"] > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_demand_beats_its_promotion(self, contender):
        _require(contender)
        hp = HierarchyParams(dedicated_prefetch_bus=True)
        trace = _cyclic_trace(3000, gap=2, seed=2)
        ref = _hybrid_run(contender, trace, hp, _hybrid())
        assert ref.counts["demand-beat"] > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_gate_denies_on_default_threshold_and_on_history(self, contender):
        _require(contender)
        hp = HierarchyParams(dedicated_prefetch_bus=True)
        trace = _cyclic_trace(4000, gap=20, seed=3)
        ref = _hybrid_run(contender, trace, hp, _hybrid())
        assert ref.counts["denied-default"] > 0
        assert ref.counts["denied-history"] > 0
        assert ref.prefetcher.promotions_approved > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("dedicated_bus", (True, False))
    def test_promotion_hit_trains_a_virtual_miss(self, contender, dedicated_bus):
        _require(contender)
        hp = HierarchyParams(dedicated_prefetch_bus=dedicated_bus)
        trace = _cyclic_trace(4000, gap=30, seed=4)
        ref = _hybrid_run(contender, trace, hp, _hybrid())
        assert ref.stats.l1_promotions > 0
        assert ref.stats.l1_promotion_hits > 0
        # every TCP lookup is a primary miss or a promotion hit
        primary = ref.stats.l1_misses - ref.stats.mshr_merges
        assert ref.prefetcher.stats.lookups == primary + ref.stats.l1_promotion_hits

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_redundant_into_l1_prefetch_registers_a_promotion(self, contender):
        _require(contender)
        hp = HierarchyParams(dedicated_prefetch_bus=True)
        trace = _cyclic_trace(3000, tags=3, gap=10, seed=5)
        ref = _hybrid_run(contender, trace, hp, _hybrid())
        assert ref.counts["redundant-into-l1"] > 0
        assert ref.stats.prefetch_redundant > 0


class _TableRewrite(Probe):
    """A probe that rewrites the prefetcher's Python-side tables at
    every mark: the native engine must reload them (sync_in), as the
    reference loop observes them immediately."""

    interval = 500

    def __init__(self):
        self.marks = 0

    def on_mark(self, mark, hierarchy):
        self.marks += 1
        p = hierarchy.prefetcher
        k = self.marks
        if isinstance(p, DeadBlockCorrelatingPrefetcher):
            p._table[k % len(p._table)].put(k, (k << 10) | 3)
            p._live_signatures[(k << 10) | 7] = k
            p._pending_death_signature = k * 5
        elif isinstance(p, HybridTCP):
            hierarchy._pending_l1[k % 4] = ((k << 10) | (k % 4), mark.last_commit)
            history = p.deadblock._history
            history[k % len(history)].put((k << 10) | 1, float(k))
        elif isinstance(p, StridePrefetcher):
            entry = _RPTEntry(k << 10)
            entry.stride, entry.state = k % 3 + 1, 2
            p._sets[k % len(p._sets)].put(4 * (k % 16), entry)
        elif isinstance(p, MarkovPrefetcher):
            entry = _MarkovEntry()
            entry.successors = [(k << 10) | 1]
            p._sets[k % len(p._sets)].put(((k % 8) << 10) | (k % len(p._sets)), entry)
            p._previous_block = ((k % 5) << 10) | 1
        elif isinstance(p, StreamBufferPrefetcher):
            p._streams[k % len(p._streams)] = _Stream(k << 10, mark.last_commit)
        elif isinstance(p, StrideFilteredTCP):
            p.detector._state[k % 4] = (k % 7, 1, 1)
        elif isinstance(p, ConfidenceFilteredTCP):
            p._confidence = dict(p._confidence)
            p._confidence[(k % 16, k % 5)] = 3


#: (hierarchy, prefetcher factory, trace) per prefetcher kind
_RELOAD_CASES = {
    "dbcp": lambda: (HierarchyParams(), _dbcp(4, 2), _set_trace(n_tags=8, n=3000, seed=31)),
    "hybrid": lambda: (
        HierarchyParams(dedicated_prefetch_bus=True), _hybrid(),
        _cyclic_trace(3000, gap=20, seed=6),
    ),
    "stride": lambda: (HierarchyParams(), _stride(4, 2), _set_trace(8, 3000, seed=61)),
    "markov": lambda: (HierarchyParams(), _markov(4, 4), _set_trace(5, 3000, seed=67)),
    "stream": lambda: (
        HierarchyParams(),
        lambda: StreamBufferPrefetcher(StreamBufferConfig(buffers=4, depth=4)),
        _block_trace(np.cumsum(np.tile([1, 2, 3, 500], 500)), np.zeros(2000)),
    ),
    "tcp-stride": lambda: (
        HierarchyParams(), _tcp_variant(StrideFilteredTCP),
        _sequence_trace([1, 2, 3, 4, 7], 3000),
    ),
    "tcp-conf": lambda: (
        HierarchyParams(), _tcp_variant(ConfidenceFilteredTCP),
        _sequence_trace([1, 3, 2, 5, 4], 3000, noise=0.2, seed=71),
    ),
}


class TestBoundaryReload:
    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("kind", tuple(_RELOAD_CASES))
    def test_probe_rewrites_are_observed(self, contender, kind):
        _require(contender)
        hp, make, trace = _RELOAD_CASES[kind]()
        ref = _state_parity(contender, trace, hp, make, probes=lambda: [_TableRewrite()])
        assert ref.prefetcher.stats.lookups > 0


# ----------------------------------------------------------------------
# The other miss-stream trainers: RPT, stream buffers, Markov, and the
# stride-filtered, confidence-filtered and look-ahead TCP variants
# ----------------------------------------------------------------------


def _block_trace(blocks, pcs, gap=4):
    """One access per (block, pc) pair, in order."""
    blocks = np.asarray(blocks, dtype=np.uint64)
    return _trace(
        blocks << np.uint64(5),
        pcs=np.asarray(pcs, dtype=np.uint64),
        gaps=np.full(len(blocks), gap, dtype=np.int64),
    )


def _sequence_trace(tags, n, sets=4, noise=0.0, seed=0, gap=4):
    """Access j goes to L1 set ``j % sets`` with the next tag of
    ``tags`` (cycled per set): each set walks the same tag sequence, so
    every access is a conflict miss.  ``noise`` replaces that share of
    the tags with random ones."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)
    index = (j % sets).astype(np.uint64)
    tag = np.asarray(tags, dtype=np.uint64)[(j // sets) % len(tags)]
    noisy = rng.random(n) < noise
    tag[noisy] = rng.integers(20, 40, int(noisy.sum())).astype(np.uint64)
    addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
    return _trace(addrs, gaps=np.full(n, gap, dtype=np.int64))


def _ledger(prefetcher, before):
    """Count the events ``before(prefetcher, miss)`` names ahead of
    each reference-run ``observe_miss`` call."""
    counts = Counter()
    observe_miss = prefetcher.observe_miss

    def _observe_miss(miss):
        for event in before(prefetcher, miss) or ():
            counts[event] += 1
        return observe_miss(miss)

    prefetcher.observe_miss = _observe_miss
    return counts


def _reference_with(hp, make_prefetcher, before):
    machine = MemoryHierarchy(hp)
    prefetcher = make_prefetcher()
    counts = _ledger(prefetcher, before)
    machine.attach_prefetcher(prefetcher)
    return machine, counts


def _stride(sets=1, ways=2, lookahead=2):
    return lambda: StridePrefetcher(
        StrideConfig(sets=sets, ways=ways, lookahead=lookahead)
    )


def _rpt_events(prefetcher, miss):
    cfg = prefetcher.config
    lru = prefetcher._sets[(miss.pc >> 2) & (cfg.sets - 1)]
    entry = lru.peek(miss.pc)
    if entry is None:
        return ["evict"] if len(lru) >= lru.ways else []
    stride = miss.block - entry.last_block
    steady = entry.state == 2 and stride == entry.stride and stride
    if steady and any(
        miss.block + stride * step <= 0 for step in range(1, cfg.lookahead + 1)
    ):
        return ["filtered"]
    return []


class TestStrideEdges:
    """The flat RPT against the LRUSet reference."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_rpt_evicts_at_way_limit(self, contender):
        _require(contender)
        rng = np.random.default_rng(41)
        n = 2000
        pcs = rng.choice(np.arange(6) * 4, n, p=[0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
        counts = Counter()
        blocks = []
        for pc in pcs:
            counts[pc] += 1
            blocks.append(4096 * (pc + 1) + (pc // 4 + 1) * counts[pc])
        trace = _block_trace(blocks, pcs)
        hp = HierarchyParams()
        ref, events = _reference_with(hp, _stride(1, 2), _rpt_events)
        _state_parity(contender, trace, hp, _stride(1, 2), ref)
        assert events["evict"] > 0
        assert ref.prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_negative_stride_near_block_zero(self, contender):
        """A descending stream reaching block 0: targets at or below 0
        are dropped while ``predictions`` still counts the look-ahead."""
        _require(contender)
        down = [12, 9, 6, 3, 0]
        blocks, pcs = [], []
        for _ in range(40):
            blocks += down + [1024 + b for b in down]  # the second half evicts
            pcs += [4] * 5 + [8] * 5
        trace = _block_trace(blocks, pcs)
        hp = HierarchyParams()
        make = _stride(4, 2, lookahead=2)
        ref, events = _reference_with(hp, make, _rpt_events)
        _state_parity(contender, trace, hp, make, ref)
        assert events["filtered"] > 0
        assert ref.stats.prefetches_requested < ref.prefetcher.stats.predictions


class _StreamTie(Probe):
    """Every third mark, rewrite the stream buffers far from the trace
    with one shared ``last_use`` (and, on odd rewrites, an empty slot):
    the next allocation must take the first empty slot, else the first
    of the tied buffers."""

    interval = 1

    def __init__(self):
        self.marks = 0

    def on_mark(self, mark, hierarchy):
        self.marks += 1
        if self.marks % 3:
            return
        p = hierarchy.prefetcher
        streams = [_Stream(10**6 + 100 * k, 1.0) for k in range(len(p._streams))]
        if self.marks % 2:
            streams[len(streams) // 2] = None
        p._streams = streams


def _stream_events(prefetcher, miss):
    streams = prefetcher._streams
    depth = prefetcher.config.depth
    if any(s is not None and 0 <= miss.block - s.next_block < depth for s in streams):
        return ["window-hit"]
    uses = [s.last_use for s in streams if s is not None]
    if None not in streams and uses.count(min(uses)) > 1:
        return ["tie"]
    return []


class TestStreamEdges:
    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_window_hit_and_tied_allocation(self, contender):
        _require(contender)
        rng = np.random.default_rng(43)
        n = 1500
        # forward runs that skip ahead inside the window, plus jumps
        steps = rng.choice([1, 2, 3, 500], n, p=[0.4, 0.3, 0.2, 0.1])
        blocks = np.cumsum(steps)
        trace = _block_trace(blocks, np.zeros(n))
        hp = HierarchyParams()

        def make():
            return StreamBufferPrefetcher(StreamBufferConfig(buffers=4, depth=4))

        ref, events = _reference_with(hp, make, _stream_events)
        _state_parity(
            contender, trace, hp, make, ref, probes=lambda: [_StreamTie()]
        )
        assert events["window-hit"] > 0
        assert events["tie"] > 0


class _PreviousIsNext(Probe):
    """Every third mark, set the Markov previous block to the block of
    the next access: if it misses, learning must be skipped."""

    interval = 1

    def __init__(self, blocks):
        self.blocks = blocks
        self.marks = 0

    def on_mark(self, mark, hierarchy):
        self.marks += 1
        if self.marks % 3 == 0 and mark.done < len(self.blocks):
            hierarchy.prefetcher._previous_block = int(self.blocks[mark.done])


def _markov(sets=4, ways=2, targets=2):
    return lambda: MarkovPrefetcher(
        MarkovConfig(sets=sets, ways=ways, targets=targets)
    )


def _markov_events(prefetcher, miss):
    previous = prefetcher._previous_block
    if previous is None:
        return []
    if previous == miss.block:
        return ["self-successor"]
    cfg = prefetcher.config
    entry = prefetcher._sets[previous & (cfg.sets - 1)].peek(previous)
    if entry is not None and miss.block in entry.successors[1:]:
        return ["reorder"]
    return []


class TestMarkovEdges:
    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_self_successor_skips_learning(self, contender):
        _require(contender)
        trace = _set_trace(n_tags=6, n=1500, sets=2, seed=47)
        blocks = (trace.addrs >> np.uint64(5)).astype(np.int64)
        hp = HierarchyParams()
        ref, events = _reference_with(hp, _markov(), _markov_events)
        _state_parity(
            contender, trace, hp, _markov(), ref,
            probes=lambda: [_PreviousIsNext(blocks)],
        )
        assert events["self-successor"] > 0
        assert ref.prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("targets", (2, 3))
    def test_multi_target_reordering(self, contender, targets):
        _require(contender)
        trace = _set_trace(n_tags=5, n=3000, sets=4, seed=53)
        hp = HierarchyParams()
        make = _markov(4, 4, targets)
        ref, events = _reference_with(hp, make, _markov_events)
        _state_parity(contender, trace, hp, make, ref)
        assert events["reorder"] > 0
        assert all(len(lru) == lru.ways for lru in ref.prefetcher._sets)


def _tcp_variant(cls, **kwargs):
    def make():
        pht = PHTConfig(sets=16, ways=4, miss_index_bits=0)
        return cls(TCPConfig(pht=pht), **kwargs)

    return make


class TestTCPVariantEdges:
    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_stride_tcp_negative_prediction(self, contender):
        """Per-set tags 4, 2, 0 confirm a stride of -2 whose next tag
        is negative: the THT is pushed, nothing is issued."""
        _require(contender)
        trace = _sequence_trace([4, 2, 0], 1200)
        make = _tcp_variant(StrideFilteredTCP)
        ref = _state_parity(contender, trace, HierarchyParams(), make)
        p = ref.prefetcher
        assert p.detector.strided_hits > p.stride_predictions

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_stride_break_hands_back_to_the_pht(self, contender):
        _require(contender)
        trace = _sequence_trace([1, 2, 3, 4, 7], 3000)
        make = _tcp_variant(StrideFilteredTCP)
        ref = _state_parity(contender, trace, HierarchyParams(), make)
        p = ref.prefetcher
        assert p.stride_predictions > 0
        assert p.pht.updates > 0 and p.pht.hits > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_confidence_saturates_and_suppresses(self, contender):
        _require(contender)
        trace = _sequence_trace([1, 3, 2, 5, 4], 4000, noise=0.2, seed=59)
        make = _tcp_variant(ConfidenceFilteredTCP)
        ref = _state_parity(contender, trace, HierarchyParams(), make)
        p = ref.prefetcher
        assert max(p._confidence.values()) == p.maximum
        assert p.suppressed > 0
        assert p.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_lookahead_chain_closes_on_itself(self, contender):
        _require(contender)
        trace = _sequence_trace([1, 2], 2000)
        hp = HierarchyParams()
        make = _tcp_variant(LookaheadTCP, degree=3)
        reference = make()
        closed = Counter()
        predict, observe_miss = reference.pht.predict, reference.observe_miss
        calls = []

        def _predict(sequence, index):
            calls.append(predict(sequence, index))
            return calls[-1]

        def _observe_miss(miss):
            calls.clear()
            requests = observe_miss(miss)
            if len(calls) == len(requests) + 1 and calls[-1] is not None:
                closed["closed"] += 1
            return requests

        reference.pht.predict = _predict
        reference.observe_miss = _observe_miss
        ref = MemoryHierarchy(hp)
        ref.attach_prefetcher(reference)
        _state_parity(contender, trace, hp, make, ref)
        assert closed["closed"] > 0
        assert reference.stats.predictions > 0
