"""Stride prefetching with a Reference Prediction Table (Baer & Chen).

The paper's related work (Section 7, [2]) describes the classic
per-load stride prefetcher: a PC-indexed table remembers each load's
last address and stride and, once the stride has been confirmed by a
two-bit state machine, prefetches ``address + stride * lookahead``.

We drive it from the L1 miss stream (consistent with every other
prefetcher in this repo — see the base-class docstring) and key the
Reference Prediction Table by the missing instruction's PC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.prefetchers.base import MissEvent, Prefetcher, PrefetchRequest
from repro.util.bitops import is_power_of_two
from repro.util.lruset import LRUSet, lru_sets

__all__ = ["StrideConfig", "StridePrefetcher"]

# Two-bit confidence states of the classic RPT.
_INITIAL, _TRANSIENT, _STEADY, _NO_PRED = 0, 1, 2, 3


@dataclass(frozen=True)
class StrideConfig:
    """Reference Prediction Table geometry."""

    sets: int = 64
    ways: int = 4
    #: how many strides ahead to prefetch once in the steady state.
    lookahead: int = 2
    #: bytes of storage per RPT entry (PC tag + last block + stride + state).
    entry_bytes: int = 13

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ValueError(f"RPT set count must be a power of two, got {self.sets}")
        if self.lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {self.lookahead}")


class _RPTEntry:
    __slots__ = ("last_block", "stride", "state")

    def __init__(self, last_block: int) -> None:
        self.last_block = last_block
        self.stride = 0
        self.state = _INITIAL


class StridePrefetcher(Prefetcher):
    """PC-indexed stride prefetcher (Reference Prediction Table)."""

    def __init__(self, config: StrideConfig = StrideConfig()) -> None:
        super().__init__("stride")
        self.config = config
        self._sets: List[LRUSet[int, _RPTEntry]] = lru_sets(config.sets, config.ways)

    def observe_miss(self, miss: MissEvent) -> List[PrefetchRequest]:
        self.stats.lookups += 1
        cfg = self.config
        index = (miss.pc >> 2) & (cfg.sets - 1)
        lru = self._sets[index]
        entry = lru.get(miss.pc)
        if entry is None:
            lru.put(miss.pc, _RPTEntry(miss.block))
            return []

        observed = miss.block - entry.last_block
        self.stats.updates += 1
        if observed == entry.stride and observed != 0:
            # Stride confirmed: strengthen confidence.
            entry.state = _STEADY if entry.state in (_TRANSIENT, _STEADY) else _TRANSIENT
        else:
            if entry.state == _STEADY:
                entry.state = _INITIAL
            elif entry.state == _INITIAL:
                entry.state = _TRANSIENT
            else:
                entry.state = _NO_PRED
            entry.stride = observed
        entry.last_block = miss.block

        if entry.state != _STEADY or entry.stride == 0:
            return []
        self.stats.predictions += cfg.lookahead
        stride = entry.stride
        return [
            PrefetchRequest(miss.block + stride * step)
            for step in range(1, cfg.lookahead + 1)
            if miss.block + stride * step > 0
        ]

    def storage_bytes(self) -> int:
        return self.config.sets * self.config.ways * self.config.entry_bytes

    def reset(self) -> None:
        super().reset()
        for lru in self._sets:
            lru.clear()
