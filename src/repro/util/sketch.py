"""Count-min sketch with periodic aging, as used by (W-)TinyLFU.

TinyLFU estimates content request frequencies in a compact sketch and
halves all counters every ``sample_size`` increments ("reset" aging), so
the estimate tracks a sliding window of roughly the last ``sample_size``
requests.  This is the frequency oracle behind the Caffeine baseline in
Appendix A.3 of the paper.

A key's counters are ``depth`` cells of the flat table, ``row * width +
col``.  ``cells`` hashes a column of keys at once, bit-identically to the
scalar ``_cells``, and ``add_at``/``estimate_at`` take one key's cells, so
a replay hashes each chunk once; ``add(key)`` and ``estimate(key)`` run
the same code on the scalar hash.
"""

from __future__ import annotations

import numpy as np

from repro.util.bloom import _mix64, mix64_column

_MASK64 = (1 << 64) - 1


class CountMinSketch:
    """Conservative-update count-min sketch over integer keys.

    Parameters
    ----------
    width:
        Counters per row; rounded up to a power of two.
    depth:
        Number of hash rows.
    sample_size:
        After this many increments every counter is halved (TinyLFU aging).
        ``0`` disables aging.
    max_count:
        Counter saturation value (TinyLFU uses 4-bit counters, i.e. 15).
    """

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        sample_size: int = 0,
        max_count: int = 15,
    ):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        if max_count <= 0:
            raise ValueError("max_count must be positive")
        self._width = 1 << (width - 1).bit_length()
        self._depth = depth
        self._mask = self._width - 1
        self._table = np.zeros((depth, self._width), dtype=np.uint32)
        # The flat table as Python ints, without boxing a NumPy scalar.
        self._counters = memoryview(self._table).cast("B").cast("I")
        self._sample_size = sample_size
        self._max_count = max_count
        self._increments = 0
        self._seeds = [_mix64(0xC0FFEE + 31 * row) for row in range(depth)]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_counters"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._counters = memoryview(self._table).cast("B").cast("I")

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    def _cells(self, key: int) -> list[int]:
        width = self._width
        mask = self._mask
        return [
            row * width + (_mix64((key ^ seed) & _MASK64) & mask)
            for row, seed in enumerate(self._seeds)
        ]

    def cells(self, keys) -> list[list[int]]:
        """``_cells`` of every key of an int64 column, hashed at once."""
        seeds = np.array(self._seeds, dtype=np.uint64)
        keys = np.asarray(keys).astype(np.uint64)
        cols = mix64_column(keys[:, None] ^ seeds) & np.uint64(self._mask)
        rows = np.arange(self._depth, dtype=np.uint64) * np.uint64(self._width)
        return (cols + rows).tolist()

    def add(self, key: int, count: int = 1) -> None:
        """Increment ``key`` with conservative update and TinyLFU aging."""
        self.add_at(self._cells(key), count)

    def add_at(self, cells, count: int = 1) -> None:
        """``add`` for the key whose counters are ``cells``."""
        if count <= 0:
            raise ValueError("count must be positive")
        counters = self._counters
        # One cell per row, so no write below changes a value read here.
        values = [counters[cell] for cell in cells]
        target = min(min(values) + count, self._max_count)
        for cell, value in zip(cells, values):
            if value < target:
                counters[cell] = target
        self._increments += count
        if self._sample_size and self._increments >= self._sample_size:
            self.age()

    def age(self) -> None:
        """Halve every counter (TinyLFU's reset)."""
        self._table >>= 1
        self._increments //= 2

    def estimate(self, key: int) -> int:
        return self.estimate_at(self._cells(key))

    def estimate_at(self, cells) -> int:
        """``estimate`` for the key whose counters are ``cells``."""
        counters = self._counters
        return min([counters[cell] for cell in cells])

    def clear(self) -> None:
        self._table.fill(0)
        self._increments = 0

    def metadata_bytes(self) -> int:
        return self._table.nbytes
