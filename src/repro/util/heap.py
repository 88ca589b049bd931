"""Lazy-deletion priority queue keyed by object id.

Cache eviction policies repeatedly need "pop the object with the smallest
priority" while priorities of cached objects change on every hit.  A binary
heap with lazy deletion gives amortized O(log n) updates: stale entries are
left in the heap and skipped at pop time.  This is the eviction engine
behind GDSF, LFU-DA, LRU-K and LFU.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator


class LazyHeap:
    """Min-heap mapping ``key -> priority`` with O(log n) update and pop.

    Ties are broken by insertion order (FIFO among equal priorities), which
    matches how classic cache policies (e.g. LFU) behave in simulators.

    An entry ``(priority, counter, key)`` is live while ``key`` holds
    ``priority``.  A stale entry stays in the list until it surfaces at
    the top or a compaction drops it, and while it stays, a push that
    gives its key that priority again makes it live again, at its old
    place in the tie order.  A compaction runs after a push or pop that
    leaves more than four entries per live key and per entry the last
    compaction kept (eight at first), so the list grows with the live
    keys, not with the updates.  It keeps the entries of removed keys
    and each live key's entries at its priority, and drops the rest:
    entries no push can make live again as long as no key's priority
    ever decreases.  Under that condition every answer equals that of
    a heap that never compacts; LRU-K, LFU and LFU-DA always meet it,
    GDS and GDSF while each content keeps its size.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []
        self._priority: dict[int, float] = {}
        self._counter = 0
        #: Entries the list may hold before a compaction is considered:
        #: four times what the last compaction kept.
        self._floor = 8

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, key: int) -> bool:
        return key in self._priority

    def __iter__(self) -> Iterator[int]:
        return iter(self._priority)

    def priority(self, key: int) -> float:
        return self._priority[key]

    def push(self, key: int, priority: float) -> None:
        """Insert ``key`` or update its priority."""
        self._priority[key] = priority
        heap = self._heap
        heapq.heappush(heap, (priority, self._counter, key))
        self._counter += 1
        if len(heap) > self._floor and len(heap) > 4 * len(self._priority):
            self._compact()

    def remove(self, key: int) -> None:
        """Remove ``key``; its heap entries become stale and are skipped."""
        del self._priority[key]

    def _compact(self) -> None:
        current = self._priority.get
        kept = [
            entry
            for entry in self._heap
            if current(entry[2], entry[0]) == entry[0]
        ]
        heapq.heapify(kept)
        self._heap = kept
        self._floor = max(8, 4 * len(kept))

    def peek(self) -> tuple[int, float]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        while self._heap:
            priority, _, key = self._heap[0]
            current = self._priority.get(key)
            if current is not None and current == priority:
                return key, priority
            heapq.heappop(self._heap)
        raise IndexError("peek from an empty heap")

    def pop(self) -> tuple[int, float]:
        """Remove and return the ``(key, priority)`` with smallest priority."""
        while self._heap:
            priority, _, key = heapq.heappop(self._heap)
            current = self._priority.get(key)
            if current is not None and current == priority:
                del self._priority[key]
                heap = self._heap
                if len(heap) > self._floor and len(heap) > 4 * len(self._priority):
                    self._compact()
                return key, priority
        raise IndexError("pop from an empty heap")

    def clear(self) -> None:
        self._heap.clear()
        self._priority.clear()
        self._counter = 0
        self._floor = 8
