"""A set of integer keys supporting O(1) add/remove/uniform-sample.

Sampling-based eviction (LRB's, LHD's and hyperbolic caching's
64-candidate sampling) needs "pick k random cached objects" in O(k); a
dict alone cannot do that, so we pair a dense list with a key -> slot
index.  LHR samples only its eviction-candidate set through it: its
cached contents live in slot columns of its own, sampled with the same
``rng.choice`` call.
"""

from __future__ import annotations

import numpy as np


class IndexedSet:
    """Integer-key set with O(1) membership, insertion, removal, sampling."""

    def __init__(self) -> None:
        self._order: list[int] = []
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: int) -> bool:
        return key in self._slot

    def __iter__(self):
        return iter(self._order)

    def add(self, key: int) -> None:
        if key in self._slot:
            return
        self._slot[key] = len(self._order)
        self._order.append(key)

    def remove(self, key: int) -> None:
        slot = self._slot.pop(key)
        last = self._order.pop()
        if last != key:
            self._order[slot] = last
            self._slot[last] = slot

    def discard(self, key: int) -> None:
        if key in self._slot:
            self.remove(key)

    def sample(self, count: int, rng: np.random.Generator) -> list[int]:
        """Uniformly sample up to ``count`` distinct keys."""
        if count >= len(self._order):
            return list(self._order)
        idx = rng.choice(len(self._order), size=count, replace=False)
        # tolist() up front: indexing a list with Python ints (and handing
        # the caller Python-int keys for its dict probes) is measurably
        # faster than doing either with NumPy scalars.
        order = self._order
        return [order[i] for i in idx.tolist()]

    def clear(self) -> None:
        self._order.clear()
        self._slot.clear()
