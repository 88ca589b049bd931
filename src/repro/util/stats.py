"""Streaming statistics used across the simulator and prototype harnesses.

The prototype experiments (Tables 2-4) report P90/P99 latency percentiles,
peak memory and average throughput over long request streams; these helpers
compute them incrementally without retaining the full sample.
"""

from __future__ import annotations

import math

import numpy as np


class RunningStats:
    """Welford's online mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self._count - 1) if self._count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def merge(self, other: "RunningStats") -> None:
        """Fold ``other`` into this accumulator (Chan et al. parallel
        Welford update) — used when per-worker registries merge."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        combined = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / combined
        self._mean += delta * other._count / combined
        self._count = combined
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)


class RunningMean:
    """A streaming mean as a sum and a count: the cheapest accumulator
    for a report that reads only ``count`` and ``mean``."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class PercentileTracker:
    """Percentile estimation over a bounded reservoir sample.

    Keeps a uniform reservoir of at most ``capacity`` observations, so the
    quantile estimate is unbiased for arbitrarily long streams while memory
    stays constant.  Deterministic for a given seed.
    """

    def __init__(self, capacity: int = 8192, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._reservoir: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(seed)

    def add(self, value: float) -> None:
        self._seen += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = int(self._rng.integers(0, self._seen))
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._seen

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (q in [0, 100]) of the stream so far."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must lie in [0, 100]")
        if not self._reservoir:
            return 0.0
        return float(np.percentile(self._reservoir, q))

    def merge(self, other: "PercentileTracker") -> None:
        """Fold ``other``'s reservoir into this one.

        The result is an approximation (the merged reservoir re-samples
        the other's already-sampled values) but stays deterministic and
        bounded, which is what registry merging across sweep workers
        needs.
        """
        for value in other._reservoir:
            self.add(value)
        # Count the observations the other tracker saw but no longer holds.
        self._seen += max(other._seen - len(other._reservoir), 0)


class EwmaEstimator:
    """Exponentially weighted moving average with optional bias correction.

    Used by AdaptSize-style tuners and the resource-accounting harness to
    smooth noisy per-window measurements.
    """

    def __init__(self, alpha: float = 0.125) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self._alpha = alpha
        self._value = 0.0
        self._weight = 0.0

    def add(self, value: float) -> None:
        self._value = (1 - self._alpha) * self._value + self._alpha * value
        self._weight = (1 - self._alpha) * self._weight + self._alpha

    @property
    def value(self) -> float:
        """Bias-corrected average; 0.0 before any observation."""
        return self._value / self._weight if self._weight else 0.0

    @property
    def initialized(self) -> bool:
        return self._weight > 0.0
