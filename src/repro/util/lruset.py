"""A small associative set with true-LRU replacement.

Both the caches (:mod:`repro.memory.cache`) and the pattern history
tables (:mod:`repro.core.pht`) are organised as arrays of small
associative sets.  ``LRUSet`` is the shared building block: a bounded
key/value mapping where inserting beyond capacity evicts the least
recently *used* entry.

The implementation rides on :class:`dict` insertion order (guaranteed
since CPython 3.7): the first key is always the LRU entry and
``move_to_end`` is emulated with a delete/re-insert, which is the
fastest portable approach for the small associativities (4–16 ways)
used here.
"""

from __future__ import annotations

import gc
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["LRUSet", "lru_sets"]


class LRUSet(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    ways:
        Maximum number of entries (the associativity).  Must be
        positive.
    """

    __slots__ = ("ways", "_entries")

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError(f"associativity must be positive, got {ways}")
        self.ways = ways
        self._entries: Dict[K, V] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from least to most recently used."""
        return iter(self._entries)

    def get(self, key: K) -> Optional[V]:
        """Return the value for ``key`` and promote it to MRU.

        Returns None when the key is absent.  Promotion on read models
        the usual cache behaviour where any touch refreshes recency.
        """
        entries = self._entries
        value = entries.get(key)
        if value is None and key not in entries:
            return None
        del entries[key]
        entries[key] = value  # type: ignore[assignment]
        return value

    def peek(self, key: K) -> Optional[V]:
        """Return the value for ``key`` WITHOUT changing recency.

        Used by probes that must not disturb replacement state, e.g.
        checking whether a prefetch target is already resident.
        """
        return self._entries.get(key)

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert or update ``key`` and promote it to MRU.

        Returns the evicted ``(key, value)`` pair when the insertion
        displaced the LRU entry, else None.
        """
        entries = self._entries
        if key in entries:
            del entries[key]
            entries[key] = value
            return None
        victim = None
        if len(entries) >= self.ways:
            victim_key = next(iter(entries))
            victim = (victim_key, entries.pop(victim_key))
        entries[key] = value
        return victim

    def put_lru(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert ``key`` at the LRU (next-to-evict) position.

        Used for low-priority fills — e.g. prefetched cache blocks that
        should not displace the demand working set's recency: if the
        prefetch was useless, it is the first thing evicted.  Updating
        an existing key keeps its current recency.  Returns the evicted
        pair, if any.
        """
        entries = self._entries
        if key in entries:
            entries[key] = value
            return None
        victim = None
        if len(entries) >= self.ways:
            victim_key = next(iter(entries))
            victim = (victim_key, entries.pop(victim_key))
        self._entries = {key: value, **entries}
        return victim

    def pop(self, key: K) -> Optional[V]:
        """Remove ``key`` and return its value (None when absent)."""
        return self._entries.pop(key, None)

    def victim_key(self) -> Optional[K]:
        """Return the key that would be evicted next (the LRU key)."""
        if not self._entries:
            return None
        return next(iter(self._entries))

    def touch(self, key: K) -> bool:
        """Promote ``key`` to MRU without reading it.

        Returns False when the key is absent.
        """
        entries = self._entries
        if key not in entries:
            return False
        entries[key] = entries.pop(key)
        return True

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate ``(key, value)`` pairs from LRU to MRU."""
        return iter(self._entries.items())

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


def lru_sets(count: int, ways: int) -> List[LRUSet]:
    """Build a table of ``count`` empty ``ways``-way sets.

    The cyclic garbage collector is paused while the sets are built
    and then restored to its prior state: a large table (TCP-8M's
    262,144 sets) otherwise triggers a collection pass every few
    hundred allocations, each walking every set built so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [LRUSet(ways) for _ in range(count)]
    finally:
        if enabled:
            gc.enable()
