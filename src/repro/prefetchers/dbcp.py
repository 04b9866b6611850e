"""Dead-Block Correlating Prefetcher (Lai, Fide & Falsafi, ISCA 2001).

This is the paper's primary comparator: Figure 11 pits an 8 KB TCP
against a DBCP with a **2 MB** correlation table and shows TCP winning
(≈14% vs ≈7% suite-wide IPC improvement).

DBCP mechanics, as reproduced here:

* Every L1 cache block accumulates a *reference-trace signature* while
  resident: a truncated addition of the block address and the PCs of
  all memory instructions that touch it (the same truncated-add
  encoding the paper borrows for TCP's PHT index, Figure 9).
* When the block is evicted, its final signature is its *death
  signature*.  The correlation table learns
  ``death_signature -> block that missed next in this set`` — i.e.
  which block to fetch once this one dies.
* On every access, the block's running signature is checked against
  the table.  A match means "this block has now received the same
  reference trace that preceded its death last time": the block is
  predicted dead and the correlated successor is prefetched (into L2,
  the placement this paper uses for all its prefetchers, Figure 10).

The critical-miss filter of the original paper is intentionally NOT
implemented, matching Section 5.1: "this filter is not incorporated in
either DBCP or TCP".

Storage accounting: with the default geometry the table holds 2 MB of
(signature-tag, successor) pairs, plus the per-frame signature
registers, so the Figure 11 budget comparison (8 KB vs 2 MB) is honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.prefetchers.base import (
    AccessEvent,
    EvictionEvent,
    MissEvent,
    Prefetcher,
    PrefetchRequest,
)
from repro.util.bitops import is_power_of_two, mask
from repro.util.lruset import LRUSet, lru_sets

__all__ = ["DBCPConfig", "DeadBlockCorrelatingPrefetcher"]


@dataclass(frozen=True)
class DBCPConfig:
    """Correlation-table geometry (defaults give the paper's 2 MB)."""

    sets: int = 32768
    ways: int = 8
    #: truncated-add signature width in bits.
    signature_bits: int = 24
    #: bytes per entry: signature tag (3) + successor block address (5).
    entry_bytes: int = 8

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ValueError(f"table set count must be a power of two, got {self.sets}")
        if self.signature_bits <= 0:
            raise ValueError("signature width must be positive")

    @property
    def entries(self) -> int:
        return self.sets * self.ways


class DeadBlockCorrelatingPrefetcher(Prefetcher):
    """PC-trace + address correlating prefetcher with death prediction."""

    needs_access_stream = True
    needs_eviction_stream = True

    def __init__(self, config: DBCPConfig = DBCPConfig()) -> None:
        super().__init__("dbcp")
        self.config = config
        self._sig_mask = mask(config.signature_bits)
        self._table: List[LRUSet[int, int]] = lru_sets(config.sets, config.ways)
        #: running signature of each resident L1 block, keyed by block number.
        self._live_signatures: Dict[int, int] = {}
        #: death signature waiting to learn its successor (set on
        #: eviction, consumed by the very next miss event).
        self._pending_death_signature: Optional[int] = None
        self.dead_predictions = 0

    # ------------------------------------------------------------------
    # Signature plumbing
    # ------------------------------------------------------------------

    def _probe(self, signature: int) -> Optional[int]:
        """Look up a death signature; return the correlated successor."""
        lru = self._table[signature & (self.config.sets - 1)]
        return lru.get(signature >> (self.config.sets.bit_length() - 1))

    def _learn(self, signature: int, successor: int) -> None:
        """Store ``death_signature -> successor block``."""
        lru = self._table[signature & (self.config.sets - 1)]
        lru.put(signature >> (self.config.sets.bit_length() - 1), successor)

    def observe_access(self, access: AccessEvent) -> List[PrefetchRequest]:
        """Accumulate the block's PC trace; predict death on a match."""
        sig_mask = self._sig_mask
        signatures = self._live_signatures
        if access.hit:
            signature = (signatures.get(access.block, access.block) + access.pc) & sig_mask
        else:
            # The fill that follows this miss starts a fresh trace.
            signature = (access.block + access.pc) & sig_mask
        signatures[access.block] = signature

        successor = self._probe(signature)
        if successor is None or successor == access.block:
            return []
        self.dead_predictions += 1
        self.stats.predictions += 1
        return [PrefetchRequest(successor)]

    def observe_eviction(self, evt: EvictionEvent) -> None:
        """The victim's final signature becomes a pending death signature."""
        signature = self._live_signatures.pop(evt.block, None)
        if signature is not None:
            self._pending_death_signature = signature

    def observe_miss(self, miss: MissEvent) -> List[PrefetchRequest]:
        """Learn ``pending death signature -> this miss`` (no prediction here;
        predictions ride on the access stream)."""
        self.stats.lookups += 1
        if self._pending_death_signature is not None:
            self._learn(self._pending_death_signature, miss.block)
            self._pending_death_signature = None
            self.stats.updates += 1
        return []

    def storage_bytes(self) -> int:
        return self.config.entries * self.config.entry_bytes

    def reset(self) -> None:
        super().reset()
        for lru in self._table:
            lru.clear()
        self._live_signatures.clear()
        self._pending_death_signature = None
        self.dead_predictions = 0
