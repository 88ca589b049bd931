"""Apache Traffic Server (ATS) prototype emulation (Section 6.1).

The paper implements LHR inside ATS by replacing the cache's lookup data
structures; the unmodified ATS baseline keeps its default LRU cache.  We
emulate the documented request path:

* **Step 1** — index lookup by URL.
* **Step 2** — on a cache hit, check freshness; fresh contents are served
  directly (2a), stale contents are revalidated with the origin and
  either served or re-fetched (2b).
* **Step 3** — on a miss, fetch from the origin, serve the user, and run
  the admission/eviction policy.

A RAM cache fronts the flash cache; per the paper "the memory cache is
typically small which has little impact on hit probability", so it is a
plain LRU and identical for both systems.  Device time comes from the
emulated flash layer, WAN traffic from the origin model, and CPU from an
explicit cost model (see :class:`CostModel` — a documented substitution
for hardware counters; DESIGN.md section 2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.policies.base import CachePolicy
from repro.policies.classic import LruCache
from repro.proto.flash import FlashStore
from repro.proto.origin import OriginServer
from repro.sim.network import NetworkModel
from repro.traces.request import Request, Trace
from repro.util.stats import PercentileTracker, RunningStats

if TYPE_CHECKING:
    from repro.proto.caffeine import CaffeineServer


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU cost model (emulating prototype measurements).

    The constants approximate a C++ CDN server on a mid-range core:
    index operations are O(1) hash probes, serving costs scale with bytes
    copied, and the learning stack (feature extraction + GBM inference +
    amortized training) is charged only to policies that use it.  They
    were chosen so the emulated utilizations land in the regime Table 2
    reports (ATS a few percent, LHR ~20-25% at full throughput).
    """

    lookup_seconds: float = 2e-6
    admit_seconds: float = 5e-6
    serve_seconds_per_mb: float = 45e-6
    learning_seconds_per_request: float = 120e-6
    learning_serve_multiplier: float = 4.5


class _RamCache:
    """Small front LRU over bytes; identical for ATS and the prototype."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: OrderedDict[int, int] = OrderedDict()
        self._used = 0

    def get(self, obj_id: int) -> bool:
        if obj_id in self._items:
            self._items.move_to_end(obj_id)
            return True
        return False

    def put(self, obj_id: int, size: int) -> None:
        if size > self.capacity:
            return
        if obj_id in self._items:
            self._items.move_to_end(obj_id)
            return
        while self._used + size > self.capacity and self._items:
            _, evicted = self._items.popitem(last=False)
            self._used -= evicted
        self._items[obj_id] = size
        self._used += size

    def drop(self, obj_id: int) -> None:
        size = self._items.pop(obj_id, None)
        if size is not None:
            self._used -= size

    @property
    def used_bytes(self) -> int:
        return self._used


@dataclass
class ServedRequest:
    """Outcome of one request through the server."""

    hit: bool
    latency_seconds: float
    wan_bytes: int
    cpu_seconds: float
    device_seconds: float


class AtsServer:
    """Emulated ATS node: RAM cache + policy-driven flash cache.

    Pass an ``LruCache`` policy for the unmodified ATS baseline or an
    ``LhrCache`` for the prototype; ``uses_learning`` controls whether the
    cost model charges the learning overhead.
    """

    def __init__(
        self,
        policy: CachePolicy,
        ram_bytes: int = 256 << 20,
        freshness_lifetime: float = 3600.0 * 24,
        origin: OriginServer | None = None,
        flash: FlashStore | None = None,
        network: NetworkModel | None = None,
        cost_model: CostModel | None = None,
        uses_learning: bool | None = None,
    ):
        self.policy = policy
        self.ram = _RamCache(ram_bytes)
        self.freshness_lifetime = freshness_lifetime
        self.origin = origin or OriginServer()
        self.flash = flash or FlashStore(capacity=2 * policy.capacity)
        self.network = network or NetworkModel()
        self.costs = cost_model or CostModel()
        if uses_learning is None:
            uses_learning = hasattr(policy, "hro")
        self.uses_learning = uses_learning
        self._admitted_at: dict[int, float] = {}
        self._versions: dict[int, int] = {}

    # ------------------------------------------------------------------

    def _cpu_cost(self, req: Request, hit: bool) -> float:
        cpu = self.costs.lookup_seconds
        cpu += self.costs.serve_seconds_per_mb * req.size / (1 << 20)
        if not hit:
            cpu += self.costs.admit_seconds
        if self.uses_learning:
            cpu += self.costs.learning_seconds_per_request
            cpu += (
                self.costs.serve_seconds_per_mb
                * (self.costs.learning_serve_multiplier - 1.0)
                * req.size
                / (1 << 20)
            )
        return cpu

    def serve(self, req: Request) -> ServedRequest:
        """Run one request through Steps 1-3; returns the accounting."""
        device = 0.0
        wan_bytes = 0
        # Step 1: index lookup.  The policy call both resolves the lookup
        # and applies admission/eviction on a miss (Step 3's cache side).
        in_ram = self.ram.get(req.obj_id)
        hit = self.policy.request(req)
        if hit:
            stale = req.time - self._admitted_at.get(req.obj_id, req.time) > (
                self.freshness_lifetime
            )
            if stale:
                # Step 2b: revalidate with the origin.
                current = self.origin.revalidate(
                    req.obj_id, self._versions.get(req.obj_id, 0), req.size
                )
                latency = self.network.origin_rtt_s
                if not current:
                    wan_bytes += req.size
                    self._versions[req.obj_id] = self.origin.version(req.obj_id)
                    latency += req.size / (self.network.wan_rate_bps / 8.0)
                    if req.obj_id in self.flash:
                        self.flash.discard(req.obj_id)
                    device += self.flash.write(req.obj_id, req.size)
                self._admitted_at[req.obj_id] = req.time
                latency += self.network.hit_latency(req.size)
            else:
                # Step 2a: serve directly (RAM hits skip the device).
                latency = self.network.hit_latency(req.size)
                if not in_ram:
                    if req.obj_id not in self.flash:
                        device += self.flash.write(req.obj_id, req.size)
                    device += self.flash.read(req.obj_id, req.size)
            self.ram.put(req.obj_id, req.size)
        else:
            # Step 3: fetch from origin, serve, and admit if the policy
            # accepted the object (policy.request already decided that).
            self.origin.fetch(req.obj_id, req.size)
            wan_bytes += req.size
            latency = self.network.miss_latency(req.size)
            if self.policy.contains(req.obj_id):
                device += self.flash.write(req.obj_id, req.size)
                self._admitted_at[req.obj_id] = req.time
                self._versions[req.obj_id] = self.origin.version(req.obj_id)
                self.ram.put(req.obj_id, req.size)
        latency += device
        cpu = self._cpu_cost(req, hit)
        return ServedRequest(
            hit=hit,
            latency_seconds=latency,
            wan_bytes=wan_bytes,
            cpu_seconds=cpu,
            device_seconds=device,
        )

    def memory_bytes(self, base_process_bytes: int = 1 << 31) -> int:
        """Resident memory proxy: process base + RAM cache + metadata."""
        total = base_process_bytes + self.ram.used_bytes
        total += self.policy.metadata_bytes()
        total += 24 * len(self._admitted_at)
        return total


@dataclass
class PrototypeReport:
    """The Table 2 / Table 4 row set for one system on one trace."""

    system: str
    trace: str
    content_hit_percent: float = 0.0
    throughput_gbps: float = 0.0
    peak_cpu_percent: float = 0.0
    peak_mem_gb: float = 0.0
    p90_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    mean_latency_ms: float = 0.0
    traffic_gbps: float = 0.0
    window_hit_ratios: list[float] = field(default_factory=list)

    def as_row(self) -> dict:
        return {
            "system": self.system,
            "trace": self.trace,
            "throughput_gbps": round(self.throughput_gbps, 2),
            "peak_cpu_percent": round(self.peak_cpu_percent, 1),
            "peak_mem_gb": round(self.peak_mem_gb, 2),
            "p90_latency_ms": round(self.p90_latency_ms, 1),
            "p99_latency_ms": round(self.p99_latency_ms, 1),
            "mean_latency_ms": round(self.mean_latency_ms, 1),
            "traffic_gbps": round(self.traffic_gbps, 3),
            "content_hit_percent": round(self.content_hit_percent, 2),
        }


def run_prototype(
    server: AtsServer | CaffeineServer,
    trace: Trace,
    system_name: str,
    window_requests: int = 2000,
) -> PrototypeReport:
    """Replay ``trace`` through an ATS or Caffeine ``server`` and compute
    the Table 2 / Table 4 report.

    The "normal" (production-speed) metrics — latency percentiles, hit
    probability, average traffic — use the trace's own timestamps; the
    "max" (throughput-bound) metrics — throughput and peak CPU — divide
    work by the modeled busy time of a saturated server.
    """
    latencies = RunningStats()
    percentiles = PercentileTracker(capacity=16_384)
    hits = 0
    wan_bytes = 0
    total_bytes = 0
    cpu_seconds = 0.0
    busy_seconds = 0.0
    peak_mem = 0
    window_hits: list[float] = []
    window_count = 0
    window_hit_count = 0
    for i, req in enumerate(trace):
        outcome = server.serve(req)
        hits += outcome.hit
        wan_bytes += outcome.wan_bytes
        total_bytes += req.size
        cpu_seconds += outcome.cpu_seconds
        latencies.add(outcome.latency_seconds)
        percentiles.add(outcome.latency_seconds)
        # Saturated busy time: edge transfer + WAN transfer + device time.
        busy_seconds += req.size / (server.network.link_rate_bps / 8.0)
        busy_seconds += outcome.wan_bytes / (server.network.wan_rate_bps / 8.0)
        busy_seconds += outcome.device_seconds
        window_count += 1
        window_hit_count += outcome.hit
        if window_count >= window_requests:
            window_hits.append(window_hit_count / window_count)
            window_count = 0
            window_hit_count = 0
        if i % 1000 == 0:
            peak_mem = max(peak_mem, server.memory_bytes())
    if window_count:
        window_hits.append(window_hit_count / window_count)
    peak_mem = max(peak_mem, server.memory_bytes())
    duration = max(trace.duration, 1e-9)
    throughput = total_bytes * 8.0 / busy_seconds if busy_seconds else 0.0
    peak_cpu = 100.0 * cpu_seconds / busy_seconds if busy_seconds else 0.0
    return PrototypeReport(
        system=system_name,
        trace=trace.name,
        content_hit_percent=100.0 * hits / max(len(trace), 1),
        throughput_gbps=throughput / 1e9,
        peak_cpu_percent=peak_cpu,
        peak_mem_gb=peak_mem / (1 << 30),
        p90_latency_ms=percentiles.percentile(90) * 1e3,
        p99_latency_ms=percentiles.percentile(99) * 1e3,
        mean_latency_ms=latencies.mean * 1e3,
        traffic_gbps=wan_bytes * 8.0 / duration / 1e9,
        window_hit_ratios=window_hits,
    )


def make_ats_baseline(capacity: int, **kwargs) -> AtsServer:
    """The unmodified ATS: LRU cache, admit-all."""
    return AtsServer(LruCache(capacity), uses_learning=False, **kwargs)
