"""A set of integer keys supporting O(1) add/remove/uniform-sample.

Sampling-based eviction (the paper's 64-candidate sampling, §5.2.5) needs
"pick k random cached objects" in O(k); a dict alone cannot do that, so
we pair a dense list of keys with a key -> slot index.  A removal
swap-removes: the last key moves into the freed slot, so the slots stay
dense.

This is also the one slot layout of the columnar victim picks, LHR's and
LHD's.  A set built with named ``columns`` keeps one float64 entry per
key in each column, at the key's slot; the swap-remove moves those
entries with the key, and the columns double when full.  A pick draws
slot indices with :meth:`IndexedSet.sample_slots`, gathers the sampled
slots' columns, scores them in one vector expression and maps the
winner back with :meth:`IndexedSet.key`.  :meth:`IndexedSet.sample`
maps the same draw to keys; LHR's eviction-candidate set, LRB and
hyperbolic caching sample through it.
"""

from __future__ import annotations

import numpy as np

#: Initial length of the slot columns; they double when full.
_INITIAL_SLOTS = 64


class IndexedSet:
    """Integer-key set with O(1) membership, insertion, removal, sampling.

    ``columns`` names the per-slot float64 columns, empty by default.
    ``columns[name][slot]`` is the owner's value for the key at ``slot``;
    only the first ``len(self)`` entries of a column are meaningful.  A
    column is replaced when it grows, so read it from ``columns`` rather
    than keeping a reference across an ``add``.
    """

    def __init__(self, columns: tuple[str, ...] = ()) -> None:
        self._order: list[int] = []
        self._slot: dict[int, int] = {}
        self._room = _INITIAL_SLOTS
        self.columns: dict[str, np.ndarray] = {
            name: np.empty(_INITIAL_SLOTS) for name in columns
        }

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: int) -> bool:
        return key in self._slot

    def __iter__(self):
        """The keys in slot order."""
        return iter(self._order)

    def slot(self, key: int) -> int | None:
        """The slot of ``key``, or None when it is not in the set."""
        return self._slot.get(key)

    def key(self, slot: int) -> int:
        """The key at ``slot``."""
        return self._order[slot]

    def add(self, key: int) -> int:
        """Insert ``key`` (a no-op if present) and return its slot.  A new
        key takes the next slot; its column entries are the caller's to
        fill."""
        slot = self._slot.get(key)
        if slot is None:
            slot = self._slot[key] = len(self._order)
            self._order.append(key)
            if slot == self._room:
                self._room *= 2
                columns = self.columns
                for name, column in columns.items():
                    columns[name] = np.concatenate([column, np.empty_like(column)])
        return slot

    def remove(self, key: int) -> None:
        slot = self._slot.pop(key)
        last = self._order.pop()
        if last != key:
            # Swap-remove: the last slot's key and column entries fill the
            # hole.
            self._order[slot] = last
            self._slot[last] = slot
            end = len(self._order)
            for column in self.columns.values():
                column[slot] = column[end]

    def discard(self, key: int) -> None:
        if key in self._slot:
            self.remove(key)

    def sample_slots(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Slot indices of up to ``count`` distinct keys, uniformly drawn
        with ``rng.choice(len(self), count, replace=False)``, or every slot
        in slot order when the set holds no more than ``count`` keys."""
        if count >= len(self._order):
            return np.arange(len(self._order))
        return rng.choice(len(self._order), size=count, replace=False)

    def sample(self, count: int, rng: np.random.Generator) -> list[int]:
        """Uniformly sample up to ``count`` distinct keys: the keys at
        :meth:`sample_slots`' slots."""
        # tolist() up front: indexing a list with Python ints (and handing
        # the caller Python-int keys for its dict probes) is measurably
        # faster than doing either with NumPy scalars.
        order = self._order
        return [order[i] for i in self.sample_slots(count, rng).tolist()]

    def clear(self) -> None:
        self._order.clear()
        self._slot.clear()
