"""Bloom filter: correctness, false-positive behaviour and sizing, and
bit-for-bit equality with the filter as it was before span hashing."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bloom import BloomFilter, mix64_column


class TestConstruction:
    def test_rejects_non_positive_expected_items(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    @pytest.mark.parametrize("fpr", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_false_positive_rate(self, fpr):
        with pytest.raises(ValueError):
            BloomFilter(100, fpr)

    def test_sizing_grows_with_capacity(self):
        small = BloomFilter(100)
        large = BloomFilter(10_000)
        assert large.num_bits > small.num_bits

    def test_sizing_grows_with_precision(self):
        loose = BloomFilter(1000, 0.1)
        tight = BloomFilter(1000, 0.001)
        assert tight.num_bits > loose.num_bits
        assert tight.num_hashes >= loose.num_hashes


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000)
        keys = list(range(0, 2000, 2))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(100)
        assert all(key not in bloom for key in range(50))

    def test_add_reports_prior_presence(self):
        bloom = BloomFilter(1000)
        assert bloom.add(7) is False
        assert bloom.add(7) is True

    def test_len_counts_distinct_inserts(self):
        bloom = BloomFilter(1000)
        for key in [1, 2, 3, 2, 1]:
            bloom.add(key)
        assert len(bloom) == 3

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(2000, false_positive_rate=0.01)
        for key in range(2000):
            bloom.add(key)
        probes = range(10_000, 30_000)
        false_positives = sum(1 for key in probes if key in bloom)
        # Allow generous slack over the 1% target.
        assert false_positives / 20_000 < 0.05

    def test_negative_and_huge_keys(self):
        bloom = BloomFilter(100)
        for key in (-1, -(10**18), 2**63, 2**64 + 17):
            bloom.add(key)
            assert key in bloom


class TestMaintenance:
    def test_clear_resets_state(self):
        bloom = BloomFilter(100)
        bloom.add(5)
        bloom.clear()
        assert 5 not in bloom
        assert len(bloom) == 0
        assert bloom.fill_ratio() == 0.0

    def test_fill_ratio_monotone(self):
        bloom = BloomFilter(500)
        previous = 0.0
        for key in range(0, 500, 50):
            bloom.add(key)
            ratio = bloom.fill_ratio()
            assert ratio >= previous
            previous = ratio
        assert 0.0 < bloom.fill_ratio() < 1.0

    def test_metadata_bytes_matches_bit_array(self):
        bloom = BloomFilter(1000)
        assert bloom.metadata_bytes() == pytest.approx(bloom.num_bits / 8, rel=0.2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=200))
def test_property_no_false_negatives(keys):
    bloom = BloomFilter(max(len(keys), 1) * 4 + 8)
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


# ----------------------------------------------------------------------
# Reference oracle: the filter before span hashing, verbatim but for its
# name, with its own copy of the mixer.  It probes NumPy scalars one key
# at a time; ``BloomFilter`` must give the same answers, count and bit
# words whichever hashing form (scalar ``add``/``in``, or a column hashed
# once and probed with ``add_at``/``contains_at``) ran.
# ----------------------------------------------------------------------

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer; a cheap, well-distributed 64-bit mixer."""
    value = (value + _GOLDEN64) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class ReferenceBloomFilter:
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
        self._count = 0

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    def __len__(self) -> int:
        """Number of ``add`` calls for keys not already (apparently) present."""
        return self._count

    def _positions(self, key: int):
        h1 = _mix64(key & _MASK64)
        h2 = _mix64(h1) | 1
        for i in range(self._num_hashes):
            yield ((h1 + i * h2) & _MASK64) % self._num_bits

    def add(self, key: int) -> bool:
        """Insert ``key``; return True if it appeared to be present already."""
        present = True
        for pos in self._positions(key):
            word, bit = divmod(pos, 64)
            mask = np.uint64(1 << bit)
            if not self._bits[word] & mask:
                present = False
                self._bits[word] |= mask
        if not present:
            self._count += 1
        return present

    def __contains__(self, key: int) -> bool:
        return all(
            self._bits[pos // 64] & np.uint64(1 << (pos % 64))
            for pos in self._positions(key)
        )

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


#: Keys over the whole int64 range, weighted toward the inputs a column
#: conversion could get wrong: negatives, values of at least 2**62, and
#: the range's edges.
INT64_KEYS = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**62, max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=-1),
    st.sampled_from([0, 1, -1, 2**62, 2**63 - 1, -(2**63)]),
)


def test_mix64_column_equals_the_scalar_mixer():
    keys = [0, 1, -1, 2**62, 2**63 - 1, -(2**63), 12345, -987654321]
    expected = [_mix64(key & _MASK64) for key in keys]
    assert mix64_column(np.array(keys, dtype=np.int64)).tolist() == expected
    assert mix64_column(keys).tolist() == expected


@settings(max_examples=150, deadline=None)
@given(
    expected_items=st.one_of(st.integers(min_value=1, max_value=64), st.just(100_000)),
    fpr=st.sampled_from([0.001, 0.01, 0.2, 0.5]),
    pool=st.lists(INT64_KEYS, min_size=2, max_size=12),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "in", "clear"]),
            st.integers(min_value=0, max_value=11),
            st.booleans(),
        ),
        min_size=8,
        max_size=40,
    ),
)
def test_filter_equals_the_reference(expected_items, fpr, pool, ops):
    """Small filters saturate and repeat positions within one key; a pool
    of at most 12 keys repeats keys.  After every operation the answers,
    ``len()`` and every bit word equal the reference's."""
    bloom = BloomFilter(expected_items, fpr)
    reference = ReferenceBloomFilter(expected_items, fpr)
    positions = bloom.positions(pool)
    for key, column in zip(pool, positions):
        assert column == bloom._positions(key) == list(reference._positions(key))
    for op, index, hashed in ops:
        key = pool[index % len(pool)]
        at = positions[index % len(pool)]
        if op == "add":
            assert (bloom.add_at(at) if hashed else bloom.add(key)) == reference.add(key)
        elif op == "in":
            assert (bloom.contains_at(at) if hashed else key in bloom) == (
                key in reference
            )
        else:
            bloom.clear()
            reference.clear()
        assert len(bloom) == len(reference)
        assert bloom._bits.tolist() == reference._bits.tolist()
    assert bloom.fill_ratio() == reference.fill_ratio()
    assert bloom.metadata_bytes() == reference.metadata_bytes()


def test_filters_of_one_geometry_share_positions():
    keys = [3, -7, 2**63 - 1]
    first, second = BloomFilter(500, 0.02), BloomFilter(500, 0.02)
    assert first.positions(keys) == second.positions(keys)
    assert BloomFilter(501, 0.02).positions(keys) != first.positions(keys)


def test_pickle_round_trip_keeps_bits_and_writes():
    bloom = BloomFilter(200)
    for key in (1, -2, 2**62):
        bloom.add(key)
    clone = pickle.loads(pickle.dumps(bloom))
    assert clone._bits.tolist() == bloom._bits.tolist()
    assert len(clone) == 3 and all(key in clone for key in (1, -2, 2**62))
    assert clone.add(99) is False and 99 in clone and 99 not in bloom
