"""LHD — Least Hit Density (Beckmann, Chen, Cidon; NSDI '18).

LHD evicts the object with the lowest *hit density*: the expected number
of future hits per byte of cache space per unit time the object will
occupy.  The original estimates densities with conditional probability
tables over object age; this implementation keeps the same structure in
a compact form:

* objects are grouped into *classes* by how often they have been
  referenced (log2 buckets of reference count), matching LHD's "app +
  age" classing in spirit;
* each class tracks an online estimate of (a) the probability that a
  member gets another hit before eviction and (b) the expected time to
  that hit, learned from observed hit/eviction events;
* an object's hit density is ``P(hit | class) / (size * E[time-to-hit |
  class] )``, discounted by the time it has already idled.

Eviction samples ``num_candidates`` objects and evicts the smallest
density, as in the original's sampled implementation.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.indexed_set import IndexedSet
from repro.util.stats import EwmaEstimator

_NUM_CLASSES = 8


class _ClassStats:
    """Online hit-probability and time-to-hit estimates for one class."""

    def __init__(self) -> None:
        self.hit_ewma = EwmaEstimator(alpha=0.05)
        self.time_to_hit = EwmaEstimator(alpha=0.05)

    def record_hit(self, idle_time: float) -> None:
        self.hit_ewma.add(1.0)
        self.time_to_hit.add(max(idle_time, 1e-9))

    def record_eviction(self) -> None:
        self.hit_ewma.add(0.0)

    @property
    def hit_probability(self) -> float:
        return self.hit_ewma.value if self.hit_ewma.initialized else 0.5

    @property
    def expected_time(self) -> float:
        return self.time_to_hit.value if self.time_to_hit.initialized else 1.0


class LhdCache(CachePolicy):
    """Sampled least-hit-density eviction."""

    name = "lhd"

    def __init__(self, capacity: int, num_candidates: int = 64, seed: int = 0):
        super().__init__(capacity)
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        self._num_candidates = num_candidates
        self._rng = np.random.default_rng(seed)
        self._cached = IndexedSet()
        self._last_access: dict[int, float] = {}
        self._counts: dict[int, int] = {}
        self._classes = [_ClassStats() for _ in range(_NUM_CLASSES)]

    def _class_of(self, obj_id: int) -> int:
        count = self._counts.get(obj_id, 1)
        return min(count.bit_length() - 1, _NUM_CLASSES - 1)

    def hit_density(self, obj_id: int, now: float) -> float:
        """Estimated hits per byte-second for a cached object."""
        stats = self._classes[self._class_of(obj_id)]
        idle = max(now - self._last_access.get(obj_id, now), 0.0)
        expected_wait = max(stats.expected_time - idle, stats.expected_time * 0.1)
        size = self._sizes.get(obj_id, 1)
        return stats.hit_probability / (size * expected_wait)

    def _on_access(self, req: Request) -> None:
        previous = self._last_access.get(req.obj_id)
        if self.contains(req.obj_id) and previous is not None:
            self._classes[self._class_of(req.obj_id)].record_hit(
                req.time - previous
            )
        self._counts[req.obj_id] = self._counts.get(req.obj_id, 0) + 1
        self._last_access[req.obj_id] = req.time

    def _on_admit(self, req: Request) -> None:
        self._cached.add(req.obj_id)

    def _on_evict(self, obj_id: int) -> None:
        self._classes[self._class_of(obj_id)].record_eviction()
        self._cached.discard(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        candidates = self._cached.sample(self._num_candidates, self._rng)
        return min(candidates, key=lambda oid: self.hit_density(oid, incoming.time))

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 24 * len(self._last_access)
