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
density, as in the original's sampled implementation.  The pick is
columnar: each cached object's last access, size and class sit in slot
columns of an :class:`~repro.util.indexed_set.IndexedSet`, and the
sampled slots' densities are computed in one vector expression with the
same float operations as :meth:`LhdCache.hit_density`.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.indexed_set import IndexedSet
from repro.util.stats import EwmaEstimator

_NUM_CLASSES = 8


def _count_class(count: int) -> int:
    """The class of an object referenced ``count`` times: log2 buckets."""
    return min(count.bit_length() - 1, _NUM_CLASSES - 1)


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
        # The cached objects, one slot each in columns of the last access,
        # size and reference-count class that ``hit_density`` reads.
        self._cached = IndexedSet(columns=("last", "size", "class"))
        # Every content's reference count, cached or not: the class
        # needs history.
        self._counts: dict[int, int] = {}
        self._classes = [_ClassStats() for _ in range(_NUM_CLASSES)]
        # Each class's ``hit_probability`` and ``expected_time``, refreshed
        # whenever its stats learn, for the columnar pick.
        self._hit_probability = np.array([s.hit_probability for s in self._classes])
        self._expected_time = np.array([s.expected_time for s in self._classes])

    def _class_of(self, obj_id: int) -> int:
        return _count_class(self._counts.get(obj_id, 1))

    def hit_density(self, obj_id: int, now: float) -> float:
        """Estimated hits per byte-second for a cached object (an
        uncached one counts as not idle)."""
        stats = self._classes[self._class_of(obj_id)]
        slot = self._cached.slot(obj_id)
        last = now if slot is None else float(self._cached.columns["last"][slot])
        idle = max(now - last, 0.0)
        expected_wait = max(stats.expected_time - idle, stats.expected_time * 0.1)
        size = self._sizes.get(obj_id, 1)
        return stats.hit_probability / (size * expected_wait)

    def _on_access(self, req: Request) -> None:
        obj_id = req.obj_id
        count = self._counts.get(obj_id, 0) + 1
        slot = self._cached.slot(obj_id)
        if slot is not None:
            # A hit: the class of the previous count learns the idle time,
            # then the slot takes the new access and class.
            cls = self._class_of(obj_id)
            stats = self._classes[cls]
            columns = self._cached.columns
            stats.record_hit(req.time - float(columns["last"][slot]))
            self._hit_probability[cls] = stats.hit_probability
            self._expected_time[cls] = stats.expected_time
            columns["last"][slot] = req.time
            columns["class"][slot] = _count_class(count)
        self._counts[obj_id] = count

    def _on_admit(self, req: Request) -> None:
        slot = self._cached.add(req.obj_id)
        columns = self._cached.columns
        columns["last"][slot] = req.time
        columns["size"][slot] = req.size
        columns["class"][slot] = self._class_of(req.obj_id)

    def _on_evict(self, obj_id: int) -> None:
        cls = self._class_of(obj_id)
        stats = self._classes[cls]
        stats.record_eviction()
        self._hit_probability[cls] = stats.hit_probability
        self._cached.remove(obj_id)

    def _select_victim(self, incoming: Request) -> int:
        """The sampled cached object with the lowest hit density.

        ``hit_density`` for every sampled slot at once, from per-class
        arrays of ``hit_probability`` and ``expected_time``, with the same
        float operations; ``argmin`` evicts the first lowest density, the
        sample-order first minimum ``min()`` over ``hit_density`` takes.
        """
        cached = self._cached
        idx = cached.sample_slots(self._num_candidates, self._rng)
        columns = cached.columns
        classes = columns["class"][idx].astype(np.intp)
        expected = self._expected_time[classes]
        idle = np.maximum(incoming.time - columns["last"][idx], 0.0)
        expected_wait = np.maximum(expected - idle, expected * 0.1)
        density = self._hit_probability[classes] / (columns["size"][idx] * expected_wait)
        return cached.key(int(idx[density.argmin()]))

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + 24 * len(self._counts)
