"""Bloom filter used by the B-LRU admission policy (Section 6.2 of the paper).

B-LRU ("Bloom Filter LRU") only admits a content the *second* time it is
seen, which filters out one-hit wonders.  The filter is one shared bit
array, probed at ``k`` positions derived from two base hashes
(Kirsch-Mitzenmacker double hashing).

Keys hash one at a time (``_mix64``, Python ints) or a column at a time
(``mix64_column``, uint64 arrays), with bit-identical results.  A replay
hashes a chunk's keys once with ``positions`` and then probes each
request's positions with ``add_at``/``contains_at``; ``add(key)`` and
``key in filter`` run the same probes on the scalar hash.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: The most keys a span kernel hashes in one column call, so the
#: per-key position lists of one call stay small however long the span.
HASH_BLOCK = 4096


def _mix64(value: int) -> int:
    """SplitMix64 finalizer; a cheap, well-distributed 64-bit mixer."""
    value = (value + _GOLDEN64) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def mix64_column(values) -> np.ndarray:
    """:func:`_mix64` over an int64 or uint64 column, as uint64.

    A value enters as its 64-bit two's complement, so element ``i``
    equals ``_mix64(values[i] & (2**64 - 1))``: uint64 arithmetic wraps
    exactly like the masked Python-int mixer.
    """
    value = np.asarray(values).astype(np.uint64)
    value = value + np.uint64(_GOLDEN64)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


class BloomFilter:
    """Fixed-size Bloom filter over integer keys.

    Parameters
    ----------
    expected_items:
        Number of distinct keys the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` inserts.
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must lie in (0, 1)")
        ln2 = math.log(2.0)
        bits = math.ceil(-expected_items * math.log(false_positive_rate) / (ln2 * ln2))
        self._num_bits = max(64, bits)
        self._num_hashes = max(1, round((self._num_bits / expected_items) * ln2))
        self._bits = np.zeros((self._num_bits + 63) // 64, dtype=np.uint64)
        # The bit words as Python ints, without boxing a NumPy scalar.
        self._words = memoryview(self._bits)
        self._count = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_words"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._words = memoryview(self._bits)

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    def __len__(self) -> int:
        """Number of ``add`` calls for keys not already (apparently) present."""
        return self._count

    def _positions(self, key: int) -> list[int]:
        h1 = _mix64(key & _MASK64)
        h2 = _mix64(h1) | 1
        return [
            ((h1 + i * h2) & _MASK64) % self._num_bits
            for i in range(self._num_hashes)
        ]

    def positions(self, keys) -> list[list[int]]:
        """``_positions`` of every key of an int64 column, hashed at once.

        Filters of one geometry (``num_bits``, ``num_hashes``) share
        positions, so a list hashed on one filter serves another.
        """
        h1 = mix64_column(keys)
        h2 = mix64_column(h1) | np.uint64(1)
        steps = np.arange(self._num_hashes, dtype=np.uint64)
        # (h1 + i * h2) mod 2**64, wrapped by uint64 as the scalar masks it.
        probes = h1[:, None] + steps * h2[:, None]
        return (probes % np.uint64(self._num_bits)).tolist()

    def add(self, key: int) -> bool:
        """Insert ``key``; return True if it appeared to be present already."""
        return self.add_at(self._positions(key))

    def add_at(self, positions) -> bool:
        """``add`` for the key whose bit positions are ``positions``."""
        words = self._words
        present = True
        for pos in positions:
            word = pos >> 6
            value = words[word]
            mask = 1 << (pos & 63)
            if not value & mask:
                present = False
                words[word] = value | mask
        if not present:
            self._count += 1
        return present

    def __contains__(self, key: int) -> bool:
        return self.contains_at(self._positions(key))

    def contains_at(self, positions) -> bool:
        """``key in filter`` for the key whose bit positions are ``positions``."""
        words = self._words
        for pos in positions:
            if not words[pos >> 6] >> (pos & 63) & 1:
                return False
        return True

    def clear(self) -> None:
        self._bits.fill(0)
        self._count = 0

    def fill_ratio(self) -> float:
        """Fraction of bits set; used to decide when to rotate the filter."""
        set_bits = int(np.unpackbits(self._bits.view(np.uint8)).sum())
        return set_bits / self._num_bits

    def metadata_bytes(self) -> int:
        """Approximate memory footprint in bytes (for overhead accounting)."""
        return self._bits.nbytes
