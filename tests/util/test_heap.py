"""LazyHeap: ordering, updates, lazy deletion and compaction."""

import heapq
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.heap import LazyHeap


class TestBasics:
    def test_empty_heap(self):
        heap = LazyHeap()
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop()
        with pytest.raises(IndexError):
            heap.peek()

    def test_push_pop_single(self):
        heap = LazyHeap()
        heap.push(1, 2.5)
        assert heap.peek() == (1, 2.5)
        assert heap.pop() == (1, 2.5)
        assert len(heap) == 0

    def test_pops_in_priority_order(self):
        heap = LazyHeap()
        for key, priority in [(1, 3.0), (2, 1.0), (3, 2.0)]:
            heap.push(key, priority)
        assert [heap.pop()[0] for _ in range(3)] == [2, 3, 1]

    def test_update_changes_order(self):
        heap = LazyHeap()
        heap.push(1, 1.0)
        heap.push(2, 2.0)
        heap.push(1, 3.0)  # update key 1 upward
        assert heap.pop() == (2, 2.0)
        assert heap.pop() == (1, 3.0)

    def test_fifo_tie_break(self):
        heap = LazyHeap()
        heap.push(10, 1.0)
        heap.push(20, 1.0)
        heap.push(30, 1.0)
        assert [heap.pop()[0] for _ in range(3)] == [10, 20, 30]

    def test_contains_and_priority(self):
        heap = LazyHeap()
        heap.push(5, 7.0)
        assert 5 in heap
        assert heap.priority(5) == 7.0
        assert 6 not in heap

    def test_remove(self):
        heap = LazyHeap()
        heap.push(1, 1.0)
        heap.push(2, 2.0)
        heap.remove(1)
        assert 1 not in heap
        assert heap.pop() == (2, 2.0)

    def test_remove_missing_raises(self):
        heap = LazyHeap()
        with pytest.raises(KeyError):
            heap.remove(404)

    def test_clear(self):
        heap = LazyHeap()
        heap.push(1, 1.0)
        heap.clear()
        assert len(heap) == 0

    def test_peek_skips_stale_entries(self):
        heap = LazyHeap()
        heap.push(1, 1.0)
        heap.push(1, 5.0)  # stale (1, 1.0) remains inside
        heap.push(2, 3.0)
        assert heap.peek() == (2, 3.0)

    def test_iteration_yields_live_keys(self):
        heap = LazyHeap()
        heap.push(1, 1.0)
        heap.push(2, 2.0)
        heap.remove(1)
        assert set(heap) == {2}


class TestCompaction:
    def test_many_updates_stay_correct(self):
        heap = LazyHeap()
        for round_index in range(50):
            for key in range(20):
                heap.push(key, float((key * 31 + round_index) % 17))
        # After heavy churn the heap still orders correctly.
        drained = [heap.pop() for _ in range(20)]
        priorities = [priority for _, priority in drained]
        assert priorities == sorted(priorities)
        assert len(heap) == 0


class _ReferenceHeap:
    """The lazy heap without compaction: a stale entry leaves only when
    it surfaces at the top, and is live again while its key holds its
    priority."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, int, int]] = []
        self.priority: dict[int, float] = {}
        self.counter = 0

    def push(self, key: int, priority: float) -> None:
        self.priority[key] = priority
        heapq.heappush(self.entries, (priority, self.counter, key))
        self.counter += 1

    def remove(self, key: int) -> None:
        del self.priority[key]

    def peek(self) -> tuple[int, float]:
        while self.entries:
            priority, _, key = self.entries[0]
            if key in self.priority and self.priority[key] == priority:
                return key, priority
            heapq.heappop(self.entries)
        raise IndexError("peek from an empty heap")

    def pop(self) -> tuple[int, float]:
        key, priority = self.peek()
        heapq.heappop(self.entries)
        del self.priority[key]
        return key, priority


def _answer(call):
    try:
        return call()
    except IndexError:
        return IndexError


_PUSH = st.tuples(
    st.just("push"),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)

#: Heap operations, pushes weighted as the policies weight them (a peek
#: pops the stale entries it meets, so frequent peeks hide growth).  A
#: push raises its key's priority by ``step``; 0 keeps it, so a key can
#: take a priority it held before or before a removal, and a key's first
#: priority is ``-inf`` for step 0, as LRU-K's are.
_OPERATIONS = st.lists(
    st.one_of(
        _PUSH,
        _PUSH,
        _PUSH,
        _PUSH,
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("peek")),
        st.tuples(st.just("pop")),
    ),
    min_size=50,
    max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(_OPERATIONS)
# GDSF's, LFU-DA's and LRU-K's growth: a cold key holds the top while a
# hot one climbs, so no peek meets the hot key's stale entries.
@example([("push", 0, 0.0)] + [("push", 1, 1.0)] * 12)
# LRU-4's revival: a content seen fewer than four times sits at -inf, is
# evicted, and is admitted again at -inf before the next peek, which
# revives its older entry and its place in the tie order; a compaction
# in between must keep that entry.
@example(
    [("push", 0, 0.0), ("push", 0, 0.0), ("push", 1, 0.0), ("peek",), ("remove", 0)]
    + [("push", 2, 1.0)] * 9
    + [("push", 0, 0.0), ("peek",)]
)
def test_property_compaction_changes_no_answer(operations):
    """Compacting on push and pop answers every call as a heap that never
    compacts does, for priorities that never decrease per key; and the
    entry list stays within four times the entries that are live or
    belong to a removed key, so it grows with the keys, not with the
    updates."""
    heap = LazyHeap()
    reference = _ReferenceHeap()
    latest: dict[int, float] = {}
    needed_max = 0
    for operation in operations:
        kind = operation[0]
        if kind == "push":
            _, key, step = operation
            before = latest.get(key, -math.inf)
            if step == 0.0:
                priority = before
            else:
                priority = step if before == -math.inf else before + step
            latest[key] = priority
            heap.push(key, priority)
            reference.push(key, priority)
        elif kind == "remove":
            key = operation[1]
            assert (key in heap) == (key in reference.priority)
            if key in heap:
                heap.remove(key)
                reference.remove(key)
        elif kind == "peek":
            assert _answer(heap.peek) == _answer(reference.peek)
        else:
            assert _answer(heap.pop) == _answer(reference.pop)
        assert len(heap) == len(reference.priority)
        assert {key: heap.priority(key) for key in heap} == reference.priority
        live = reference.priority
        needed = sum(
            1
            for priority, _, key in reference.entries
            if key not in live or live[key] == priority
        )
        needed_max = max(needed_max, needed)
        if kind == "push":
            assert len(heap._heap) <= max(8, 4 * needed_max)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        max_size=120,
    )
)
def test_property_pop_order_matches_final_priorities(operations):
    heap = LazyHeap()
    final: dict[int, float] = {}
    for key, priority in operations:
        heap.push(key, priority)
        final[key] = priority
    drained = []
    while len(heap):
        drained.append(heap.pop())
    assert {key for key, _ in drained} == set(final)
    priorities = [priority for _, priority in drained]
    assert priorities == sorted(priorities)
    for key, priority in drained:
        assert final[key] == priority
