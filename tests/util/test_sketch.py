"""Count-min sketch: estimates, saturation, aging and error bounds, and
cell-for-cell equality with the sketch as it was before span hashing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.sketch import CountMinSketch
from tests.util.test_bloom import _MASK64, INT64_KEYS, _mix64


class TestConstruction:
    @pytest.mark.parametrize("width,depth", [(0, 4), (16, 0), (-1, 2)])
    def test_rejects_bad_dimensions(self, width, depth):
        with pytest.raises(ValueError):
            CountMinSketch(width=width, depth=depth)

    def test_rejects_bad_max_count(self):
        with pytest.raises(ValueError):
            CountMinSketch(max_count=0)

    def test_width_rounded_to_power_of_two(self):
        sketch = CountMinSketch(width=1000)
        assert sketch.width == 1024


class TestEstimation:
    def test_unseen_key_estimates_zero(self):
        sketch = CountMinSketch(width=256)
        assert sketch.estimate(12345) == 0

    def test_estimate_never_underestimates(self):
        sketch = CountMinSketch(width=4096, depth=4, max_count=1000)
        truth: dict[int, int] = {}
        for key in range(200):
            count = (key % 7) + 1
            truth[key] = count
            for _ in range(count):
                sketch.add(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_estimate_exact_when_sparse(self):
        sketch = CountMinSketch(width=4096, depth=4, max_count=100)
        sketch.add(1, count=3)
        sketch.add(2, count=5)
        assert sketch.estimate(1) == 3
        assert sketch.estimate(2) == 5

    def test_rejects_non_positive_count(self):
        sketch = CountMinSketch()
        with pytest.raises(ValueError):
            sketch.add(1, count=0)

    def test_counter_saturation(self):
        sketch = CountMinSketch(width=256, max_count=15)
        for _ in range(100):
            sketch.add(9)
        assert sketch.estimate(9) == 15


class TestAging:
    def test_aging_halves_counters(self):
        sketch = CountMinSketch(width=256, sample_size=0, max_count=100)
        for _ in range(8):
            sketch.add(1)
        sketch.age()
        assert sketch.estimate(1) == 4

    def test_automatic_aging_bounds_estimates(self):
        sketch = CountMinSketch(width=256, sample_size=16, max_count=100)
        for _ in range(64):
            sketch.add(2)
        # With aging every 16 increments the counter cannot reach 64.
        assert sketch.estimate(2) < 40

    def test_clear(self):
        sketch = CountMinSketch(width=256)
        sketch.add(3, count=5)
        sketch.clear()
        assert sketch.estimate(3) == 0

    def test_metadata_bytes_positive(self):
        assert CountMinSketch(width=1024, depth=4).metadata_bytes() == 1024 * 4 * 4


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10),
        max_size=50,
    )
)
def test_property_overestimate_only(truth):
    sketch = CountMinSketch(width=2048, depth=4, max_count=1 << 20)
    for key, count in truth.items():
        sketch.add(key, count=count)
    for key, count in truth.items():
        assert sketch.estimate(key) >= count


# ----------------------------------------------------------------------
# Reference oracle: the sketch before span hashing, verbatim but for its
# name, on the reference mixer copy in test_bloom.py.  ``CountMinSketch``
# must hold the same counters and give the same estimates whichever
# hashing form (scalar ``add``/``estimate``, or a column hashed once and
# applied with ``add_at``/``estimate_at``) ran.
# ----------------------------------------------------------------------

class ReferenceCountMinSketch:
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
        self._sample_size = sample_size
        self._max_count = max_count
        self._increments = 0
        self._seeds = [_mix64(0xC0FFEE + 31 * row) for row in range(depth)]

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    def _indices(self, key: int) -> list[int]:
        return [
            _mix64((key ^ seed) & _MASK64) & self._mask for seed in self._seeds
        ]

    def add(self, key: int, count: int = 1) -> None:
        """Increment ``key`` with conservative update and TinyLFU aging."""
        if count <= 0:
            raise ValueError("count must be positive")
        idx = self._indices(key)
        current = min(int(self._table[row, col]) for row, col in enumerate(idx))
        target = min(current + count, self._max_count)
        for row, col in enumerate(idx):
            if self._table[row, col] < target:
                self._table[row, col] = target
        self._increments += count
        if self._sample_size and self._increments >= self._sample_size:
            self._age()

    def _age(self) -> None:
        self._table >>= 1
        self._increments //= 2

    def estimate(self, key: int) -> int:
        return min(
            int(self._table[row, col]) for row, col in enumerate(self._indices(key))
        )

    def clear(self) -> None:
        self._table.fill(0)
        self._increments = 0

    def metadata_bytes(self) -> int:
        return self._table.nbytes


@settings(max_examples=150, deadline=None)
@given(
    width=st.sampled_from([1, 2, 5, 16, 1000]),
    depth=st.integers(min_value=1, max_value=5),
    sample_size=st.sampled_from([0, 1, 3, 16]),
    max_count=st.sampled_from([1, 2, 15, 1 << 20]),
    pool=st.lists(INT64_KEYS, min_size=2, max_size=12),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "add", "estimate", "age", "clear"]),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=1, max_value=4),
            st.booleans(),
        ),
        min_size=8,
        max_size=60,
    ),
)
def test_sketch_equals_the_reference(
    width, depth, sample_size, max_count, pool, ops
):
    """Narrow tables collide, small ``max_count`` saturates, a small
    ``sample_size`` ages inside ``add`` and ``age`` ages on demand.  After
    every operation every cell, the increment count and each estimate
    equal the reference's."""
    sketch = CountMinSketch(width, depth, sample_size, max_count)
    reference = ReferenceCountMinSketch(width, depth, sample_size, max_count)
    cells = sketch.cells(pool)
    for key, column in zip(pool, cells):
        flat = [row * sketch.width + col for row, col in enumerate(reference._indices(key))]
        assert column == sketch._cells(key) == flat
    for op, index, count, hashed in ops:
        key = pool[index % len(pool)]
        at = cells[index % len(pool)]
        if op == "add":
            if hashed:
                sketch.add_at(at, count)
            else:
                sketch.add(key, count)
            reference.add(key, count)
        elif op == "estimate":
            got = sketch.estimate_at(at) if hashed else sketch.estimate(key)
            assert got == reference.estimate(key)
        elif op == "age":
            sketch.age()
            reference._age()
        else:
            sketch.clear()
            reference.clear()
        assert sketch._table.tolist() == reference._table.tolist()
        assert sketch._increments == reference._increments
    assert sketch.metadata_bytes() == reference.metadata_bytes()


def test_cells_are_row_major_flat_indices():
    sketch = CountMinSketch(width=64, depth=3)
    [cells] = sketch.cells(np.array([-5], dtype=np.int64))
    assert [cell // 64 for cell in cells] == [0, 1, 2]
    sketch.add_at(cells, 2)
    assert [sketch._table[row, cell % 64] for row, cell in enumerate(cells)] == [2, 2, 2]
    assert sketch.estimate(-5) == 2


def test_pickle_round_trip_keeps_counters_and_writes():
    sketch = CountMinSketch(width=64, max_count=100)
    sketch.add(7, count=5)
    clone = pickle.loads(pickle.dumps(sketch))
    assert clone._table.tolist() == sketch._table.tolist()
    clone.add(7)
    assert clone.estimate(7) == 6 and sketch.estimate(7) == 5
