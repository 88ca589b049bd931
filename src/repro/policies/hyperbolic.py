"""Hyperbolic caching (Blankstein, Sen, Freedman; ATC '17).

Each cached object carries the priority ``n_i / (s_i * (t - t_i))`` —
its request count since entering the cache, per byte, per second of
residence.  Unlike LFU the priority *decays continuously* (hyperbolically)
with residence time, and unlike LRU a burst of hits protects an object
long after the burst.  Eviction samples ``num_candidates`` objects and
drops the lowest priority, exactly as the paper's implementation does.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.indexed_set import IndexedSet


class HyperbolicCache(CachePolicy):
    """Sampled hyperbolic eviction, size-aware variant."""

    name = "hyperbolic"

    def __init__(
        self,
        capacity: int,
        num_candidates: int = 64,
        size_aware: bool = True,
        seed: int = 0,
    ):
        super().__init__(capacity)
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        self._num_candidates = num_candidates
        self._size_aware = size_aware
        self._rng = np.random.default_rng(seed)
        self._cached = IndexedSet()
        self._entered: dict[int, float] = {}
        self._hits_since_entry: dict[int, int] = {}

    def priority(self, obj_id: int, now: float) -> float:
        """The hyperbolic priority of a cached object at time ``now``."""
        residence = max(now - self._entered[obj_id], 1e-9)
        count = self._hits_since_entry[obj_id]
        value = count / residence
        if self._size_aware:
            value /= self._sizes[obj_id]
        return value

    def _on_hit(self, req: Request) -> None:
        self._hits_since_entry[req.obj_id] += 1

    def _on_admit(self, req: Request) -> None:
        self._cached.add(req.obj_id)
        self._entered[req.obj_id] = req.time
        self._hits_since_entry[req.obj_id] = 1

    def _on_evict(self, obj_id: int) -> None:
        self._cached.discard(obj_id)
        self._entered.pop(obj_id, None)
        self._hits_since_entry.pop(obj_id, None)

    def _select_victim(self, incoming: Request) -> int:
        candidates = self._cached.sample(self._num_candidates, self._rng)
        return min(candidates, key=lambda oid: self.priority(oid, incoming.time))

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 20 * len(self._entered)
