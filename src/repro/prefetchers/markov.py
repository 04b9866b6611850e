"""Markov prefetching (Joseph & Grunwald, ISCA 1997).

The paper's related work [9] and its Section 6 discussion of "number of
prefetch targets": a correlation table maps each miss *address* to the
addresses that followed it in the miss stream, kept in LRU order, and
prefetches the top ``targets`` of them on the next occurrence.

This is the canonical **address-based** correlating prefetcher: every
distinct miss block needs its own entry, which is exactly the storage
blow-up the paper's tag-based scheme avoids.  The table budget is
explicit so the TCP-vs-address-correlation comparisons in the benches
are budget-fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetchers.base import MissEvent, Prefetcher, PrefetchRequest
from repro.util.bitops import is_power_of_two
from repro.util.lruset import LRUSet, lru_sets

__all__ = ["MarkovConfig", "MarkovPrefetcher"]


@dataclass(frozen=True)
class MarkovConfig:
    """Markov correlation table geometry."""

    sets: int = 4096
    ways: int = 4
    #: successor slots per entry; prefetch all of them, MRU first.
    targets: int = 2
    #: bytes per successor slot (block address) plus per-entry tag.
    slot_bytes: int = 4
    tag_bytes: int = 4

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ValueError(f"table set count must be a power of two, got {self.sets}")
        if self.targets <= 0:
            raise ValueError(f"targets must be positive, got {self.targets}")

    @property
    def entries(self) -> int:
        return self.sets * self.ways


class _MarkovEntry:
    """Successor list in MRU order (index 0 = most recent successor)."""

    __slots__ = ("successors",)

    def __init__(self) -> None:
        self.successors: List[int] = []

    def record(self, successor: int, capacity: int) -> None:
        if successor in self.successors:
            self.successors.remove(successor)
        self.successors.insert(0, successor)
        del self.successors[capacity:]


class MarkovPrefetcher(Prefetcher):
    """Address-correlating Markov prefetcher with multi-target entries."""

    def __init__(self, config: MarkovConfig = MarkovConfig()) -> None:
        super().__init__("markov")
        self.config = config
        self._sets: List[LRUSet[int, _MarkovEntry]] = lru_sets(config.sets, config.ways)
        self._previous_block: Optional[int] = None

    def _entry_for(self, block: int, create: bool) -> Optional[_MarkovEntry]:
        lru = self._sets[block & (self.config.sets - 1)]
        entry = lru.get(block)
        if entry is None and create:
            entry = _MarkovEntry()
            lru.put(block, entry)
        return entry

    def observe_miss(self, miss: MissEvent) -> List[PrefetchRequest]:
        self.stats.lookups += 1
        cfg = self.config

        # Learn: previous miss block -> this miss block.
        if self._previous_block is not None and self._previous_block != miss.block:
            entry = self._entry_for(self._previous_block, create=True)
            entry.record(miss.block, cfg.targets)  # type: ignore[union-attr]
            self.stats.updates += 1
        self._previous_block = miss.block

        # Predict: successors of this miss block.
        entry = self._entry_for(miss.block, create=False)
        if entry is None or not entry.successors:
            return []
        self.stats.predictions += len(entry.successors)
        return [PrefetchRequest(block) for block in entry.successors]

    def storage_bytes(self) -> int:
        cfg = self.config
        per_entry = cfg.tag_bytes + cfg.targets * cfg.slot_bytes
        return cfg.entries * per_entry

    def reset(self) -> None:
        super().reset()
        for lru in self._sets:
            lru.clear()
        self._previous_block = None
