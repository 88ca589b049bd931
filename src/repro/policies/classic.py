"""Classic eviction policies: FIFO, RANDOM, LRU, LRU-K, LFU, LFU-DA, GDSF.

These are the conventional baselines from Section 8 ("Conventional
caching algorithms").  LRU-4, LFU-DA and GDSF are among the paper's seven
best-performing SOTAs (Section 6.2).
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from repro.policies.base import CachePolicy
from repro.traces.request import Request


class FifoCache(CachePolicy):
    """First-in first-out eviction."""

    name = "fifo"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._queue: deque[int] = deque()

    def _on_admit(self, req: Request) -> None:
        self._queue.append(req.obj_id)

    def _select_victim(self, incoming: Request) -> int:
        while self._queue:
            candidate = self._queue[0]
            if self.contains(candidate):
                return self._queue.popleft()
            self._queue.popleft()
        raise RuntimeError("fifo queue out of sync with cache state")


class RandomCache(CachePolicy):
    """Uniform-random eviction; the memoryless baseline."""

    name = "random"

    def __init__(self, capacity: int, seed: int = 0):
        super().__init__(capacity)
        self._rng = np.random.default_rng(seed)
        self._order: list[int] = []
        self._slot: dict[int, int] = {}

    def _on_admit(self, req: Request) -> None:
        self._slot[req.obj_id] = len(self._order)
        self._order.append(req.obj_id)

    def _on_evict(self, obj_id: int) -> None:
        slot = self._slot.pop(obj_id)
        last = self._order.pop()
        if last != obj_id:
            self._order[slot] = last
            self._slot[last] = slot

    def _select_victim(self, incoming: Request) -> int:
        index = int(self._rng.integers(0, len(self._order)))
        return self._order[index]


class LruCache(CachePolicy):
    """Least Recently Used — the production default the paper argues against."""

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: OrderedDict[int, None] = OrderedDict()
        self._pin_span_kernel(LruCache)

    def _on_hit(self, req: Request) -> None:
        self._order.move_to_end(req.obj_id)

    def _on_admit(self, req: Request) -> None:
        self._order[req.obj_id] = None

    def _on_evict(self, obj_id: int) -> None:
        self._order.pop(obj_id, None)

    def _select_victim(self, incoming: Request) -> int:
        return next(iter(self._order))

    def replay_span(self, obj_ids, sizes_col, times, begin: int, end: int) -> None:
        # Native span kernel: CachePolicy.request with the LRU hooks
        # inlined, every hot name held in a local and the counters written
        # back once at the span edge — the engine reads them only at span
        # boundaries.
        sizes = self._sizes
        order = self._order
        move_to_end = order.move_to_end
        popitem = order.popitem
        pop_size = sizes.pop
        capacity = self.capacity
        used = self._used
        hits = hit_bytes = misses = miss_bytes = evictions = admissions = 0
        for obj_id, size in zip(
            obj_ids[begin:end].tolist(), sizes_col[begin:end].tolist()
        ):
            if obj_id in sizes:
                hits += 1
                hit_bytes += size
                move_to_end(obj_id)
            else:
                misses += 1
                miss_bytes += size
                if size <= capacity:
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


class LruKCache(CachePolicy):
    """LRU-K (O'Neil et al.): evict by backward-K reference time.

    The victim is the object whose K-th most recent reference is oldest;
    objects with fewer than K references rank before all fully-referenced
    objects (classic LRU-K tie-break), falling back to plain LRU order
    among themselves.  ``k=4`` gives the paper's LRU-4 baseline.
    """

    name = "lru-k"

    def __init__(self, capacity: int, k: int = 4):
        if k < 1:
            raise ValueError("k must be >= 1")
        super().__init__(capacity)
        self.k = k
        self.name = f"lru-{k}"
        #: Each content's last (at most ``k``) reference times, oldest
        #: first.  Every content ever seen keeps one, so it is a tuple,
        #: rebuilt per access: a fraction of a ``deque``'s footprint.
        self._history: dict[int, tuple[float, ...]] = {}
        #: Occupied history slots — kept incrementally so metadata_bytes
        #: stays O(1) under the engine's probe loop (a history holds at
        #: most ``k`` times and never shrinks, so the count only grows).
        self._history_slots = 0
        self._heap = _PriorityIndex()
        self._pin_span_kernel(LruKCache)

    def _on_access(self, req: Request) -> None:
        times = self._history.get(req.obj_id, ())
        if len(times) < self.k:
            self._history_slots += 1
            self._history[req.obj_id] = times + (req.time,)
        else:
            self._history[req.obj_id] = times[1:] + (req.time,)
        if self.contains(req.obj_id):
            self._heap.update(req.obj_id, self._backward_k_time(req.obj_id))

    def _on_admit(self, req: Request) -> None:
        self._heap.update(req.obj_id, self._backward_k_time(req.obj_id))

    def _on_evict(self, obj_id: int) -> None:
        self._heap.discard(obj_id)

    def _backward_k_time(self, obj_id: int) -> float:
        times = self._history.get(obj_id)
        if times is None or len(times) < self.k:
            return -np.inf
        return times[0]

    def _select_victim(self, incoming: Request) -> int:
        # Smallest backward-K time first; objects with fewer than K
        # references carry -inf and are evicted first, oldest-pushed first
        # (the heap's FIFO tie-break approximates LRU among them).
        return self._heap.peek_min()

    def replay_span(self, obj_ids, sizes_col, times, begin: int, end: int) -> None:
        # Native span kernel: CachePolicy.request with the LRU-K hooks
        # inlined, the hot names in locals and counters written back once
        # at the span edge.
        k = self.k
        history = self._history
        history_get = history.get
        sizes = self._sizes
        heap = self._heap
        heap_update = heap.update
        heap_discard = heap.discard
        peek_min = heap.peek_min
        pop_size = sizes.pop
        capacity = self.capacity
        used = self._used
        history_slots = self._history_slots
        neg_inf = -np.inf
        hits = hit_bytes = misses = miss_bytes = evictions = admissions = 0
        for obj_id, size, now in zip(
            obj_ids[begin:end].tolist(),
            sizes_col[begin:end].tolist(),
            times[begin:end].tolist(),
        ):
            times_q = history_get(obj_id, ())
            if len(times_q) < k:
                history_slots += 1
                times_q += (now,)
            else:
                times_q = times_q[1:] + (now,)
            history[obj_id] = times_q
            if obj_id in sizes:
                heap_update(obj_id, times_q[0] if len(times_q) == k else neg_inf)
                hits += 1
                hit_bytes += size
            else:
                misses += 1
                miss_bytes += size
                if size <= capacity:
                    used += size
                    while used > capacity:
                        victim = peek_min()
                        if victim not in sizes:
                            raise RuntimeError(
                                f"{self.name}: victim {victim} is not cached"
                            )
                        used -= pop_size(victim)
                        evictions += 1
                        heap_discard(victim)
                    sizes[obj_id] = size
                    admissions += 1
                    heap_update(
                        obj_id, times_q[0] if len(times_q) == k else neg_inf
                    )
        self._used = used
        self._history_slots = history_slots
        self.hits += hits
        self.hit_bytes += hit_bytes
        self.misses += misses
        self.miss_bytes += miss_bytes
        self.evictions += evictions
        self.admissions += admissions

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 8 * self._history_slots


class LfuCache(CachePolicy):
    """Least Frequently Used with per-object lifetime counts."""

    name = "lfu"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._counts: dict[int, int] = {}
        self._heap = _PriorityIndex()

    def _on_access(self, req: Request) -> None:
        self._counts[req.obj_id] = self._counts.get(req.obj_id, 0) + 1
        if self.contains(req.obj_id):
            self._heap.update(req.obj_id, float(self._counts[req.obj_id]))

    def _on_admit(self, req: Request) -> None:
        self._heap.update(req.obj_id, float(self._counts[req.obj_id]))

    def _on_evict(self, obj_id: int) -> None:
        self._heap.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        return self._heap.peek_min()

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 16 * len(self._counts)


class LfuDaCache(CachePolicy):
    """LFU with Dynamic Aging (Arlitt et al.) — one of the paper's SOTAs.

    Priority is ``count + L`` where the aging factor ``L`` is raised to the
    priority of each evicted object, so long-resident but stale objects
    eventually lose to newly popular ones.
    """

    name = "lfu-da"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._counts: dict[int, int] = {}
        self._heap = _PriorityIndex()
        self._age = 0.0
        self._pin_span_kernel(LfuDaCache)

    def _priority(self, obj_id: int) -> float:
        return self._counts.get(obj_id, 0) + self._age

    def _on_access(self, req: Request) -> None:
        self._counts[req.obj_id] = self._counts.get(req.obj_id, 0) + 1
        if self.contains(req.obj_id):
            self._heap.update(req.obj_id, self._priority(req.obj_id))

    def _on_admit(self, req: Request) -> None:
        self._heap.update(req.obj_id, self._priority(req.obj_id))

    def _on_evict(self, obj_id: int) -> None:
        self._heap.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        victim = self._heap.peek_min()
        self._age = self._heap.priority(victim)
        return victim

    def replay_span(self, obj_ids, sizes_col, times, begin: int, end: int) -> None:
        # Native span kernel: CachePolicy.request with the LFU-DA hooks
        # inlined and the hot names in locals; the aging factor rides in a
        # local too and is written back with the counters at the span edge.
        counts = self._counts
        counts_get = counts.get
        sizes = self._sizes
        heap = self._heap
        heap_update = heap.update
        heap_discard = heap.discard
        peek_min = heap.peek_min
        heap_priority = heap.priority
        pop_size = sizes.pop
        capacity = self.capacity
        used = self._used
        age = self._age
        hits = hit_bytes = misses = miss_bytes = evictions = admissions = 0
        for obj_id, size in zip(
            obj_ids[begin:end].tolist(), sizes_col[begin:end].tolist()
        ):
            count = counts_get(obj_id, 0) + 1
            counts[obj_id] = count
            if obj_id in sizes:
                heap_update(obj_id, count + age)
                hits += 1
                hit_bytes += size
            else:
                misses += 1
                miss_bytes += size
                if size <= capacity:
                    used += size
                    while used > capacity:
                        victim = peek_min()
                        age = heap_priority(victim)
                        if victim not in sizes:
                            raise RuntimeError(
                                f"{self.name}: victim {victim} is not cached"
                            )
                        used -= pop_size(victim)
                        evictions += 1
                        heap_discard(victim)
                    sizes[obj_id] = size
                    admissions += 1
                    heap_update(obj_id, count + age)
        self._age = age
        self._used = used
        self.hits += hits
        self.hit_bytes += hit_bytes
        self.misses += misses
        self.miss_bytes += miss_bytes
        self.evictions += evictions
        self.admissions += admissions

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 16 * len(self._counts)


class GdsfCache(CachePolicy):
    """GreedyDual-Size-Frequency (Cherkasova).

    Priority is ``L + frequency / size``; small, popular objects are
    retained preferentially, which matters on CDN traces whose sizes span
    seven orders of magnitude.
    """

    name = "gdsf"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._counts: dict[int, int] = {}
        self._heap = _PriorityIndex()
        self._age = 0.0

    def _priority(self, obj_id: int, size: int) -> float:
        return self._age + self._counts.get(obj_id, 0) / size

    def _on_access(self, req: Request) -> None:
        self._counts[req.obj_id] = self._counts.get(req.obj_id, 0) + 1
        if self.contains(req.obj_id):
            self._heap.update(req.obj_id, self._priority(req.obj_id, req.size))

    def _on_admit(self, req: Request) -> None:
        self._heap.update(req.obj_id, self._priority(req.obj_id, req.size))

    def _on_evict(self, obj_id: int) -> None:
        self._heap.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        victim = self._heap.peek_min()
        self._age = self._heap.priority(victim)
        return victim

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 16 * len(self._counts)


class GdsCache(GdsfCache):
    """GreedyDual-Size (Cao & Irani): ``L + 1/size``, frequency-blind.

    The non-frequency ancestor of GDSF; kept as a baseline to isolate how
    much of GDSF's win comes from frequency vs pure size-awareness.
    """

    name = "gds"

    def _priority(self, obj_id: int, size: int) -> float:
        return self._age + 1.0 / size


class _PriorityIndex:
    """Thin wrapper over LazyHeap with discard-if-present semantics."""

    def __init__(self) -> None:
        from repro.util.heap import LazyHeap

        self._heap = LazyHeap()

    def update(self, key: int, priority: float) -> None:
        self._heap.push(key, priority)

    def discard(self, key: int) -> None:
        if key in self._heap:
            self._heap.remove(key)

    def peek_min(self) -> int:
        return self._heap.peek()[0]

    def priority(self, key: int) -> float:
        return self._heap.priority(key)
