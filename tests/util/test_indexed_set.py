"""IndexedSet: O(1) set with uniform sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.indexed_set import IndexedSet


class TestBasics:
    def test_add_contains_len(self):
        s = IndexedSet()
        s.add(1)
        s.add(2)
        s.add(1)  # duplicate is a no-op
        assert len(s) == 2
        assert 1 in s and 2 in s and 3 not in s

    def test_remove(self):
        s = IndexedSet()
        for key in (1, 2, 3):
            s.add(key)
        s.remove(2)
        assert 2 not in s
        assert len(s) == 2

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedSet().remove(9)

    def test_discard_missing_is_noop(self):
        s = IndexedSet()
        s.discard(9)
        assert len(s) == 0

    def test_remove_last_element(self):
        s = IndexedSet()
        s.add(7)
        s.remove(7)
        assert len(s) == 0

    def test_iteration(self):
        s = IndexedSet()
        for key in (5, 6, 7):
            s.add(key)
        assert set(s) == {5, 6, 7}

    def test_clear(self):
        s = IndexedSet()
        s.add(1)
        s.clear()
        assert len(s) == 0 and 1 not in s


class TestSampling:
    def test_sample_all_when_count_exceeds_size(self):
        s = IndexedSet()
        for key in range(5):
            s.add(key)
        sample = s.sample(100, np.random.default_rng(0))
        assert sorted(sample) == list(range(5))

    def test_sample_distinct(self):
        s = IndexedSet()
        for key in range(100):
            s.add(key)
        sample = s.sample(30, np.random.default_rng(1))
        assert len(sample) == 30
        assert len(set(sample)) == 30
        assert all(key in s for key in sample)

    def test_sample_roughly_uniform(self):
        s = IndexedSet()
        for key in range(10):
            s.add(key)
        rng = np.random.default_rng(2)
        counts = np.zeros(10)
        for _ in range(2000):
            for key in s.sample(3, rng):
                counts[key] += 1
        assert counts.min() > 0.5 * counts.max()


class TestSlotColumns:
    def test_add_returns_slot_and_columns_follow_swap_remove(self):
        s = IndexedSet(columns=("a", "b"))
        for key in (10, 11, 12):
            slot = s.add(key)
            s.columns["a"][slot] = key + 0.5
            s.columns["b"][slot] = -key
        assert s.add(11) == 1  # present: its slot, nothing moves
        s.remove(10)  # 12 moves into slot 0 with its entries
        assert list(s) == [12, 11]
        assert (s.slot(12), s.slot(11), s.slot(10)) == (0, 1, None)
        assert s.key(0) == 12
        assert s.columns["a"][:2].tolist() == [12.5, 11.5]
        assert s.columns["b"][:2].tolist() == [-12.0, -11.0]

    def test_columns_grow_and_keep_entries(self):
        s = IndexedSet(columns=("a",))
        for key in range(200):
            slot = s.add(key)
            s.columns["a"][slot] = key
        assert len(s.columns["a"]) >= 200
        assert s.columns["a"][:200].tolist() == list(range(200))

    @pytest.mark.parametrize("size", [0, 3, 64, 65, 500])
    @pytest.mark.parametrize("count", [1, 4, 64])
    def test_sample_is_the_keys_at_sample_slots(self, size, count):
        s = IndexedSet()
        for key in range(size):
            s.add(3 * key)
        slots = s.sample_slots(count, np.random.default_rng(5))
        keys = s.sample(count, np.random.default_rng(5))
        assert keys == [s.key(slot) for slot in slots.tolist()]
        if size <= count:
            assert slots.tolist() == list(range(size))
        else:
            expected = np.random.default_rng(5).choice(size, size=count, replace=False)
            assert slots.tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=90)), max_size=300))
def test_property_columns_match_dict(operations):
    # Each key's column entry is its own value however the swap-removes
    # and growth move it.
    indexed = IndexedSet(columns=("value",))
    reference: dict[int, float] = {}
    for is_add, key in operations:
        if is_add and key not in reference:
            slot = indexed.add(key)
            indexed.columns["value"][slot] = key * 1.5
            reference[key] = key * 1.5
        elif not is_add:
            indexed.discard(key)
            reference.pop(key, None)
        column = indexed.columns["value"]
        assert {k: column[indexed.slot(k)] for k in indexed} == reference
        assert [indexed.key(slot) for slot in range(len(indexed))] == list(indexed)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)), max_size=150
    )
)
def test_property_matches_builtin_set(operations):
    indexed = IndexedSet()
    reference: set[int] = set()
    for is_add, key in operations:
        if is_add:
            indexed.add(key)
            reference.add(key)
        else:
            indexed.discard(key)
            reference.discard(key)
        assert len(indexed) == len(reference)
    assert set(indexed) == reference
