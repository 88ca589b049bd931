"""Streaming statistics: Welford, sum-and-count means, reservoir
percentiles, EWMA."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    EwmaEstimator,
    PercentileTracker,
    RunningMean,
    RunningStats,
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.minimum == 0.0 and stats.maximum == 0.0

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.minimum == 5.0 and stats.maximum == 5.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000) * 3 + 7
        stats = RunningStats()
        for value in values:
            stats.add(float(value))
        assert stats.mean == pytest.approx(values.mean())
        assert stats.variance == pytest.approx(values.var(ddof=1))
        assert stats.stddev == pytest.approx(values.std(ddof=1))
        assert stats.minimum == pytest.approx(values.min())
        assert stats.maximum == pytest.approx(values.max())

    def test_merge_equals_sequential(self):
        """Chan et al. parallel merge must match feeding one stream."""
        rng = np.random.default_rng(1)
        values = rng.standard_normal(500) * 2 - 3
        combined = RunningStats()
        left, right = RunningStats(), RunningStats()
        for i, value in enumerate(values):
            combined.add(float(value))
            (left if i < 200 else right).add(float(value))
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum

    def test_merge_with_empty_is_identity(self):
        stats = RunningStats()
        stats.add(1.0)
        stats.add(3.0)
        stats.merge(RunningStats())
        assert stats.count == 2 and stats.mean == 2.0
        empty = RunningStats()
        empty.merge(stats)
        assert empty.count == 2 and empty.mean == 2.0


class TestRunningMean:
    def test_empty(self):
        mean = RunningMean()
        assert mean.count == 0 and mean.mean == 0.0

    def test_matches_welford_and_numpy(self):
        values = np.random.default_rng(2).exponential(40.0, 1000)
        mean, welford = RunningMean(), RunningStats()
        for value in values:
            mean.add(float(value))
            welford.add(float(value))
        assert mean.count == welford.count == 1000
        assert mean.mean == pytest.approx(values.mean())
        assert mean.mean == pytest.approx(welford.mean)

    def test_integer_values(self):
        mean = RunningMean()
        for hits in (0, 3, 0, 1):
            mean.add(hits)
        assert mean.mean == 1.0 and isinstance(mean.mean, float)

    def test_pickles(self):
        mean = RunningMean()
        mean.add(2.0)
        copy = pickle.loads(pickle.dumps(mean))
        copy.add(4.0)
        assert (copy.count, copy.mean) == (2, 3.0)


class TestPercentileTracker:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PercentileTracker(0)

    def test_rejects_bad_quantile(self):
        tracker = PercentileTracker()
        with pytest.raises(ValueError):
            tracker.percentile(101)

    def test_empty_returns_zero(self):
        assert PercentileTracker().percentile(50) == 0.0

    def test_merge_exact_under_capacity(self):
        left = PercentileTracker(capacity=1000)
        right = PercentileTracker(capacity=1000)
        for value in range(50):
            left.add(float(value))
        for value in range(50, 100):
            right.add(float(value))
        left.merge(right)
        assert left.percentile(50) == pytest.approx(49.5, abs=1.0)
        assert left.percentile(100) == 99.0

    def test_merge_approximates_when_sampled(self):
        rng = np.random.default_rng(3)
        left = PercentileTracker(capacity=256, seed=1)
        right = PercentileTracker(capacity=256, seed=2)
        for value in rng.uniform(0, 1, 5000):
            left.add(float(value))
        for value in rng.uniform(0, 1, 5000):
            right.add(float(value))
        left.merge(right)
        assert left.percentile(50) == pytest.approx(0.5, abs=0.1)

    def test_exact_when_under_capacity(self):
        tracker = PercentileTracker(capacity=1000)
        values = list(range(100))
        for value in values:
            tracker.add(value)
        assert tracker.percentile(50) == pytest.approx(np.percentile(values, 50))
        assert tracker.percentile(90) == pytest.approx(np.percentile(values, 90))

    def test_reservoir_approximates_long_stream(self):
        rng = np.random.default_rng(1)
        tracker = PercentileTracker(capacity=4096, seed=1)
        values = rng.exponential(1.0, 100_000)
        for value in values:
            tracker.add(float(value))
        assert tracker.count == 100_000
        assert tracker.percentile(90) == pytest.approx(
            np.percentile(values, 90), rel=0.1
        )

    def test_deterministic_for_seed(self):
        def run():
            tracker = PercentileTracker(capacity=16, seed=3)
            for value in range(1000):
                tracker.add(value)
            return tracker.percentile(50)

        assert run() == run()


class TestEwma:
    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.2])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha)

    def test_uninitialized_value(self):
        est = EwmaEstimator()
        assert est.value == 0.0
        assert not est.initialized

    def test_bias_corrected_first_value(self):
        est = EwmaEstimator(alpha=0.1)
        est.add(10.0)
        assert est.value == pytest.approx(10.0)

    def test_converges_to_constant(self):
        est = EwmaEstimator(alpha=0.25)
        for _ in range(100):
            est.add(4.0)
        assert est.value == pytest.approx(4.0)

    def test_tracks_level_shift(self):
        est = EwmaEstimator(alpha=0.5)
        for _ in range(20):
            est.add(0.0)
        for _ in range(20):
            est.add(100.0)
        assert est.value > 99.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2))
def test_property_welford_matches_numpy(values):
    stats = RunningStats()
    for value in values:
        stats.add(value)
    arr = np.asarray(values)
    assert stats.mean == pytest.approx(arr.mean(), rel=1e-6, abs=1e-6)
    assert stats.variance == pytest.approx(arr.var(ddof=1), rel=1e-5, abs=1e-4)
