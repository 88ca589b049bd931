"""B-LRU — Bloom-filter LRU (footnote 6 of the paper).

A Bloom filter remembers which contents have been seen before; an object
is only admitted on its *second* request, which keeps one-hit wonders out
of the cache.  The filter is rotated (two-generation scheme) once it has
absorbed ``rotation_items`` distinct keys so stale history ages out while
recent contents stay remembered across the rotation.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.bloom import HASH_BLOCK, BloomFilter


class BloomLruCache(CachePolicy):
    """LRU eviction behind a seen-before Bloom-filter admission gate."""

    name = "b-lru"

    def __init__(
        self,
        capacity: int,
        rotation_items: int = 100_000,
        false_positive_rate: float = 0.01,
    ):
        super().__init__(capacity)
        if rotation_items <= 0:
            raise ValueError("rotation_items must be positive")
        self._rotation_items = rotation_items
        self._fpr = false_positive_rate
        self._current = BloomFilter(rotation_items, false_positive_rate)
        self._previous: BloomFilter | None = None
        self._order: OrderedDict[int, None] = OrderedDict()
        self._pin_span_kernel(BloomLruCache)

    def _seen_before(self, obj_id: int) -> bool:
        if obj_id in self._current:
            return True
        return self._previous is not None and obj_id in self._previous

    def _on_access(self, req: Request) -> None:
        if len(self._current) >= self._rotation_items:
            self._previous = self._current
            self._current = BloomFilter(self._rotation_items, self._fpr)

    def _on_hit(self, req: Request) -> None:
        self._order.move_to_end(req.obj_id)
        self._current.add(req.obj_id)

    def _should_admit(self, req: Request) -> bool:
        seen = self._seen_before(req.obj_id)
        self._current.add(req.obj_id)
        return seen

    def _on_admit(self, req: Request) -> None:
        self._order[req.obj_id] = None

    def _on_evict(self, obj_id: int) -> None:
        self._order.pop(obj_id, None)

    def _select_victim(self, incoming: Request) -> int:
        return next(iter(self._order))

    def replay_span(self, obj_ids, sizes_col, times, begin: int, end: int) -> None:
        # Native span kernel: CachePolicy.request with the B-LRU hooks
        # inlined, the hot names in locals and counters written back once
        # at the span edge.  The rotation check re-reads the live filter
        # each iteration, so the two-generation hand-off behaves exactly as
        # in ``request``.  Keys are hashed a block at a time; both
        # generations share one geometry, so a block's positions stay valid
        # across a rotation inside it.
        rotation_items = self._rotation_items
        fpr = self._fpr
        sizes = self._sizes
        order = self._order
        move_to_end = order.move_to_end
        popitem = order.popitem
        pop_size = sizes.pop
        capacity = self.capacity
        used = self._used
        current = self._current
        previous = self._previous
        hits = hit_bytes = misses = miss_bytes = evictions = admissions = 0
        for block in range(begin, end, HASH_BLOCK):
            stop = min(block + HASH_BLOCK, end)
            ids = obj_ids[block:stop]
            for obj_id, size, at in zip(
                ids.tolist(), sizes_col[block:stop].tolist(), current.positions(ids)
            ):
                if len(current) >= rotation_items:
                    self._previous = previous = current
                    current = BloomFilter(rotation_items, fpr)
                    self._current = current
                if obj_id in sizes:
                    hits += 1
                    hit_bytes += size
                    move_to_end(obj_id)
                    current.add_at(at)
                else:
                    misses += 1
                    miss_bytes += size
                    if size <= capacity:
                        # The admission gate's bloom insertion only happens
                        # for objects that could fit — base request()
                        # short-circuits ``_should_admit`` on oversized ones.
                        seen = current.contains_at(at) or (
                            previous is not None and previous.contains_at(at)
                        )
                        current.add_at(at)
                        if seen:
                            used += size
                            while used > capacity:
                                victim, _ = popitem(last=False)
                                used -= pop_size(victim)
                                evictions += 1
                            sizes[obj_id] = size
                            admissions += 1
                            order[obj_id] = None
        self._used = used
        self.hits += hits
        self.hit_bytes += hit_bytes
        self.misses += misses
        self.miss_bytes += miss_bytes
        self.evictions += evictions
        self.admissions += admissions

    def metadata_bytes(self) -> int:
        total = self._current.metadata_bytes()
        if self._previous is not None:
            total += self._previous.metadata_bytes()
        return super().metadata_bytes() + total
