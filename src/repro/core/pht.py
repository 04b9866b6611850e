"""The Pattern History Table (second level of the TCP, Figure 8).

The PHT stores observed tag-correlation patterns.  It is organised as a
set-associative structure (8-way in the paper); the set index comes
from the :class:`repro.core.indexing.PHTIndexScheme` hash of the tag
sequence, and within a set each entry is tagged with the most recent
tag of its indexing sequence, storing the predicted successor tag:

    ``entry = (tag, tag')``  where ``tag'`` is the predicted next tag.

PHT size is ``sets × ways × 2 × field_bytes``: each entry holds two tag
fields, so with 2-byte fields the paper's TCP-8K (256 sets × 8 ways)
costs exactly 8 KB and TCP-8M (262 144 sets × 8 ways) exactly 8 MB.

Multi-target entries (Section 6, after Joseph & Grunwald's Markov
prefetcher) are supported via ``targets > 1``: the entry keeps its most
recent ``targets`` successors in MRU order and the prefetcher may issue
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.indexing import IndexFunction, PHTIndexScheme
from repro.util.bitops import index_geometry, is_power_of_two
from repro.util.lruset import LRUSet, lru_sets

__all__ = ["PHTConfig", "PatternHistoryTable"]


@dataclass(frozen=True)
class PHTConfig:
    """Pattern History Table geometry."""

    sets: int = 256
    ways: int = 8
    #: n — miss-index bits mixed into the set index (0 = fully shared).
    miss_index_bits: int = 0
    #: storage bytes per tag field (the paper's sizing uses 2).
    field_bytes: int = 2
    #: successors stored per entry (1 = the paper's base design).
    targets: int = 1
    index_function: IndexFunction = IndexFunction.TRUNCATED_ADD

    def __post_init__(self) -> None:
        if not is_power_of_two(self.sets):
            raise ValueError(f"PHT set count must be a power of two, got {self.sets}")
        if self.ways <= 0:
            raise ValueError(f"PHT associativity must be positive, got {self.ways}")
        if self.targets <= 0:
            raise ValueError(f"targets per entry must be positive, got {self.targets}")
        if self.miss_index_bits > index_geometry(self.sets)[0]:
            raise ValueError(
                f"{self.miss_index_bits} miss-index bits cannot fit in a "
                f"{self.sets}-set PHT index"
            )

    @property
    def index_scheme(self) -> PHTIndexScheme:
        """The Figure 9 index computation for this geometry."""
        return PHTIndexScheme(
            total_index_bits=index_geometry(self.sets)[0],
            miss_index_bits=self.miss_index_bits,
            function=self.index_function,
        )

    def storage_bytes(self) -> int:
        """Hardware budget: sets × ways × (1 + targets) tag fields."""
        return self.sets * self.ways * (1 + self.targets) * self.field_bytes


class PatternHistoryTable:
    """Associative storage of ``tag-sequence -> next tag(s)`` patterns."""

    def __init__(self, config: PHTConfig = PHTConfig()) -> None:
        self.config = config
        self._scheme = config.index_scheme
        self._sets: List[LRUSet[int, List[int]]] = lru_sets(config.sets, config.ways)
        self.updates = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------

    def set_index(self, sequence: Sequence[int], miss_index: int) -> int:
        """Expose the index computation (tests and analysis use this)."""
        return self._scheme.compute(sequence, miss_index)

    def update(self, sequence: Sequence[int], miss_index: int, next_tag: int) -> None:
        """Learn ``sequence -> next_tag``.

        The entry is located by the hashed set index and tagged with
        the most recent tag of ``sequence``; its successor list is
        refreshed MRU-first (a single-target PHT simply overwrites).
        """
        self.updates += 1
        lru = self._sets[self._scheme.compute(sequence, miss_index)]
        entry_tag = sequence[-1]
        successors = lru.get(entry_tag)
        if successors is None:
            lru.put(entry_tag, [next_tag])
            return
        if successors and successors[0] == next_tag:
            return
        if next_tag in successors:
            successors.remove(next_tag)
        successors.insert(0, next_tag)
        del successors[self.config.targets :]

    def predict(self, sequence: Sequence[int], miss_index: int) -> Optional[List[int]]:
        """Return the successors recorded for ``sequence`` (MRU first).

        Returns None on a PHT miss.  The returned list is a copy, so
        callers may not corrupt table state.
        """
        self.lookups += 1
        lru = self._sets[self._scheme.compute(sequence, miss_index)]
        successors = lru.get(sequence[-1])
        if successors is None:
            return None
        self.hits += 1
        return list(successors)

    # ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a pattern."""
        return self.hits / self.lookups if self.lookups else 0.0

    def occupancy(self) -> int:
        """Number of valid entries currently stored."""
        return sum(len(lru) for lru in self._sets)

    def reset(self) -> None:
        for lru in self._sets:
            lru.clear()
        self.updates = 0
        self.lookups = 0
        self.hits = 0

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"PatternHistoryTable({cfg.sets}x{cfg.ways}, n={cfg.miss_index_bits}, "
            f"{self.storage_bytes()}B)"
        )
