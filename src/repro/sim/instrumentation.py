"""Policy instrumentation: lifetime and admission diagnostics.

Wraps any :class:`CachePolicy` and records the distributions papers and
postmortems always end up needing:

* eviction age — how long evicted objects sat in the cache,
* hits-per-residency — how many hits an object served before eviction,
* admission ratio over time — how selective the admission policy is,
* dead-on-arrival rate — admitted objects evicted without a single hit
  (wasted admissions; the quantity admission policies exist to minimize).

The wrapper is transparent: it forwards ``request`` to the inner policy
and observes outcomes from the outside, so it works with every policy in
the registry including LHR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policies.base import CachePolicy
from repro.traces.request import Request
from repro.util.stats import PercentileTracker, RunningStats


@dataclass
class _Residency:
    admitted_at: float
    hits: int = 0


class InstrumentedPolicy:
    """Transparent diagnostics wrapper around a cache policy."""

    def __init__(self, policy: CachePolicy):
        self.policy = policy
        self.name = f"instrumented({policy.name})"
        self._residency: dict[int, _Residency] = {}
        self._now = 0.0
        self.eviction_ages = RunningStats()
        self.eviction_age_percentiles = PercentileTracker(capacity=8192, seed=1)
        self.hits_per_residency = RunningStats()
        self.dead_on_arrival = 0
        self.completed_residencies = 0
        self.miss_requests = 0
        self.admitted_requests = 0
        # Intercept evictions at the source (O(1) per eviction instead of
        # scanning the residency table per request).
        original_on_evict = policy._on_evict

        def hooked_on_evict(obj_id: int) -> None:
            self._finish(obj_id, self._now)
            original_on_evict(obj_id)

        policy._on_evict = hooked_on_evict

    # ------------------------------------------------------------------

    def request(self, req: Request) -> bool:
        self._now = req.time
        hit = self.policy.request(req)
        if hit:
            record = self._residency.get(req.obj_id)
            if record is not None:
                record.hits += 1
        else:
            self.miss_requests += 1
            if self.policy.contains(req.obj_id):
                self.admitted_requests += 1
                self._residency[req.obj_id] = _Residency(admitted_at=req.time)
        return hit

    def _finish(self, obj_id: int, now: float) -> None:
        record = self._residency.pop(obj_id, None)
        if record is None:
            return
        age = max(now - record.admitted_at, 0.0)
        self.eviction_ages.add(age)
        self.eviction_age_percentiles.add(age)
        self.hits_per_residency.add(float(record.hits))
        self.completed_residencies += 1
        if record.hits == 0:
            self.dead_on_arrival += 1

    def process(self, requests) -> None:
        for req in requests:
            self.request(req)

    def replay_span(self, obj_ids, sizes, times, begin: int, end: int) -> None:
        """The engine's entry point: the base walker over this wrapper's
        ``request``, so ``simulate`` records diagnostics too (the inner
        policy's span kernel would bypass the wrapper)."""
        CachePolicy.replay_span(self, obj_ids, sizes, times, begin, end)

    # ------------------------------------------------------------------
    # Pass-throughs so the wrapper quacks like the inner policy.
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.policy, name)

    # ------------------------------------------------------------------

    @property
    def admission_ratio(self) -> float:
        """Fraction of misses that were admitted."""
        return (
            self.admitted_requests / self.miss_requests
            if self.miss_requests
            else 0.0
        )

    @property
    def dead_on_arrival_ratio(self) -> float:
        """Fraction of completed residencies that served zero hits."""
        return (
            self.dead_on_arrival / self.completed_residencies
            if self.completed_residencies
            else 0.0
        )

    def report(self) -> dict:
        return {
            "policy": self.policy.name,
            "object_hit_ratio": round(self.policy.object_hit_ratio, 4),
            "admission_ratio": round(self.admission_ratio, 4),
            "dead_on_arrival_ratio": round(self.dead_on_arrival_ratio, 4),
            "mean_eviction_age_s": round(self.eviction_ages.mean, 2),
            "p90_eviction_age_s": round(
                self.eviction_age_percentiles.percentile(90), 2
            ),
            "mean_hits_per_residency": round(self.hits_per_residency.mean, 3),
        }
