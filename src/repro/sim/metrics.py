"""Simulation metrics.

``SimulationResult`` captures everything the paper's evaluation reports
per (policy, trace, cache size) cell: object/byte hit ratios, WAN traffic
(= bytes fetched from the origin, i.e. all miss bytes — a miss must be
fetched to serve the user whether or not it is admitted), per-window hit
series (Figure 7), runtime and metadata overhead (Figure 9).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field


@dataclass
class WindowMetrics:
    """Hit counters for one reporting window."""

    index: int
    requests: int = 0
    hits: int = 0
    hit_bytes: int = 0
    total_bytes: int = 0
    #: Evictions performed during this window (delta of the policy's
    #: monotone eviction counter at the window edges) — the per-window
    #: "eviction pressure" column the run ledger persists.
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        return self.hit_bytes / self.total_bytes if self.total_bytes else 0.0


@dataclass
class SimulationResult:
    """Aggregate outcome of one policy run over one trace."""

    policy: str
    trace: str
    capacity: int
    requests: int = 0
    hits: int = 0
    hit_bytes: int = 0
    total_bytes: int = 0
    evictions: int = 0
    admissions: int = 0
    runtime_seconds: float = 0.0
    peak_metadata_bytes: int = 0
    windows: list[WindowMetrics] = field(default_factory=list)
    #: The run's :class:`~repro.obs.trace.DecisionTracer`, when the
    #: simulation was traced (``simulate(..., tracer=...)`` or a sweep
    #: with ``trace_config``); ``None`` otherwise.  Rides the result
    #: across process boundaries so parallel sweeps return per-cell
    #: decision traces in grid order, exactly like recorders.
    decision_trace: object | None = None
    #: The run's per-window learner-health series
    #: (:class:`~repro.obs.learner.LearnerSeries`), when the simulation
    #: ran with the learner telemetry sink enabled; ``None`` otherwise.
    #: Plain numpy columns, so it pickles across the worker->driver pipe
    #: and sweeps return per-cell series in grid order.
    learner: object | None = None
    #: Position of this result in its sweep grid (-1 outside a sweep).
    #: Parallel execution completes cells out of order; this is the key
    #: that restores the caller's (capacity, policy) grid order.
    cell_index: int = -1

    @property
    def object_hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        return self.hit_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def miss_bytes(self) -> int:
        return self.total_bytes - self.hit_bytes

    @property
    def wan_traffic_bytes(self) -> int:
        """Bytes pulled over the WAN from the origin (every miss fetches)."""
        return self.miss_bytes

    @property
    def wan_traffic_ratio(self) -> float:
        """WAN bytes as a fraction of total requested bytes."""
        return self.miss_bytes / self.total_bytes if self.total_bytes else 0.0

    def counters(self) -> dict:
        """The integer counters that determinism tests compare exactly."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "hit_bytes": self.hit_bytes,
            "total_bytes": self.total_bytes,
            "evictions": self.evictions,
            "admissions": self.admissions,
        }

    def window_series(self) -> list[tuple[int, int, int, int]]:
        """Per-window ``(requests, hits, hit_bytes, total_bytes)`` tuples."""
        return [
            (w.requests, w.hits, w.hit_bytes, w.total_bytes) for w in self.windows
        ]

    def as_row(self) -> dict:
        """Flat dict for result tables."""
        return {
            "policy": self.policy,
            "trace": self.trace,
            "capacity": self.capacity,
            "requests": self.requests,
            "object_hit_ratio": round(self.object_hit_ratio, 4),
            "byte_hit_ratio": round(self.byte_hit_ratio, 4),
            "wan_traffic_gb": round(self.wan_traffic_bytes / (1 << 30), 3),
            "evictions": self.evictions,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "peak_metadata_mb": round(self.peak_metadata_bytes / (1 << 20), 3),
        }


def grid_order(results: Iterable[SimulationResult]) -> list[SimulationResult]:
    """Sort sweep results back into grid order by ``cell_index``.

    Results that never went through a sweep (``cell_index == -1``) keep
    their relative order and sort ahead of indexed ones only if every
    index is -1 (plain sorted() is stable, so a fully-unindexed list is
    returned unchanged).
    """
    return sorted(results, key=lambda result: result.cell_index)

