"""Bélády's MIN algorithm and its size-aware variant.

``belady_unit`` is exact OPT for equal-size objects (Bélády 1966).
``belady_size`` is the community's standard adaptation to variable sizes
— evict the object(s) with the farthest next request until the incoming
object fits — which the paper calls "Bélády-size" and shows is *not* an
optimality guarantee for variable sizes (computing true OPT is NP-hard).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.traces.request import Request

#: Sentinel next-occurrence index for "never requested again".
NEVER = 1 << 62


@dataclass(frozen=True)
class BoundResult:
    """Outcome of running a bound over a request sequence."""

    name: str
    requests: int
    hits: int
    hit_bytes: int
    total_bytes: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        return self.hit_bytes / self.total_bytes if self.total_bytes else 0.0


def next_occurrences(requests: Sequence[Request]) -> list[int]:
    """For each request index, the index of the next request to the same
    content, or ``NEVER``."""
    nxt = [NEVER] * len(requests)
    last_seen: dict[int, int] = {}
    for i in range(len(requests) - 1, -1, -1):
        obj_id = requests[i].obj_id
        nxt[i] = last_seen.get(obj_id, NEVER)
        last_seen[obj_id] = i
    return nxt


class _FarthestIndex:
    """Max-heap on next occurrence with lazy invalidation."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []  # (-next_occurrence, obj_id)
        self._current: dict[int, int] = {}  # obj_id -> next occurrence

    def __len__(self) -> int:
        return len(self._current)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._current

    def set(self, obj_id: int, occurrence: int) -> None:
        self._current[obj_id] = occurrence
        heapq.heappush(self._heap, (-occurrence, obj_id))

    def remove(self, obj_id: int) -> None:
        del self._current[obj_id]

    def peek_farthest(self) -> tuple[int, int]:
        """Return ``(obj_id, next_occurrence)`` of the farthest entry."""
        while self._heap:
            neg_occ, obj_id = self._heap[0]
            if self._current.get(obj_id) == -neg_occ:
                return obj_id, -neg_occ
            heapq.heappop(self._heap)
        raise IndexError("peek from an empty index")

    def pop_farthest(self) -> tuple[int, int]:
        obj_id, occurrence = self.peek_farthest()
        heapq.heappop(self._heap)
        del self._current[obj_id]
        return obj_id, occurrence


def belady_unit(requests: Sequence[Request], capacity_objects: int) -> BoundResult:
    """Exact Bélády MIN for a cache holding ``capacity_objects`` objects.

    Sizes are ignored (the classic paging model).  O(n log n) via a lazy
    max-heap on next occurrence.
    """
    if capacity_objects <= 0:
        raise ValueError("capacity_objects must be positive")
    nxt = next_occurrences(requests)
    index = _FarthestIndex()
    hits = 0
    hit_bytes = 0
    total_bytes = 0
    for i, req in enumerate(requests):
        total_bytes += req.size
        if req.obj_id in index:
            hits += 1
            hit_bytes += req.size
            index.set(req.obj_id, nxt[i])
            continue
        if nxt[i] == NEVER:
            continue  # never requested again: caching it cannot help
        if len(index) >= capacity_objects:
            _, farthest = index.peek_farthest()
            if nxt[i] >= farthest:
                continue  # incoming is needed later than everything cached
            index.pop_farthest()
        index.set(req.obj_id, nxt[i])
    return BoundResult(
        name="belady",
        requests=len(requests),
        hits=hits,
        hit_bytes=hit_bytes,
        total_bytes=total_bytes,
    )


def _belady_size_run(
    requests: Sequence[Request], capacity: int
) -> tuple[list[bool], int, int, int]:
    """Simulate Bélády-size; return (per-request hit flags, hits, hit_bytes,
    total_bytes)."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    nxt = next_occurrences(requests)
    index = _FarthestIndex()
    sizes: dict[int, int] = {}
    used = 0
    hits = 0
    hit_bytes = 0
    total_bytes = 0
    hit_flags = [False] * len(requests)
    for i, req in enumerate(requests):
        total_bytes += req.size
        if req.obj_id in index:
            hits += 1
            hit_bytes += req.size
            hit_flags[i] = True
            index.set(req.obj_id, nxt[i])
            continue
        if nxt[i] == NEVER or req.size > capacity:
            continue
        # Evict farthest-next-request objects until the object fits, but
        # never evict anything requested sooner than the incoming object.
        admitted = True
        evicted: list[tuple[int, int, int]] = []
        while used + req.size > capacity:
            victim, occurrence = index.peek_farthest()
            if occurrence <= nxt[i]:
                admitted = False
                break
            index.pop_farthest()
            victim_size = sizes.pop(victim)
            evicted.append((victim, occurrence, victim_size))
            used -= victim_size
        if admitted:
            index.set(req.obj_id, nxt[i])
            sizes[req.obj_id] = req.size
            used += req.size
        else:
            # Roll back evictions made before we discovered infeasibility.
            for victim, occurrence, victim_size in evicted:
                index.set(victim, occurrence)
                sizes[victim] = victim_size
                used += victim_size
    return hit_flags, hits, hit_bytes, total_bytes


def belady_size(requests: Sequence[Request], capacity: int) -> BoundResult:
    """The Bélády-size bound: farthest-next-request eviction by bytes.

    A greedy heuristic, not OPT, and not monotone in ``capacity``: a
    larger cache can let it admit a large object whose one hit costs the
    hits of the several small objects it evicts (pinned in
    ``tests/bounds/test_properties.py``).
    """
    _, hits, hit_bytes, total_bytes = _belady_size_run(requests, capacity)
    return BoundResult(
        name="belady-size",
        requests=len(requests),
        hits=hits,
        hit_bytes=hit_bytes,
        total_bytes=total_bytes,
    )


def belady_size_decisions(
    requests: Sequence[Request], capacity: int
) -> list[int]:
    """Per-request admission labels for OPT-imitation learners (LFO).

    Label request ``k`` with 1 iff the content's *next* request was served
    as a hit by Bélády-size — i.e. caching the content at ``k`` paid off.
    """
    hit_flags, *_ = _belady_size_run(requests, capacity)
    nxt = next_occurrences(requests)
    return [
        1 if nxt[i] != NEVER and hit_flags[nxt[i]] else 0
        for i in range(len(requests))
    ]
