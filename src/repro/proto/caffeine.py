"""Caffeine prototype emulation (Appendix A.3).

Caffeine is an in-memory Java cache whose baseline policy is W-TinyLFU;
the paper swaps in LHR and compares.  The emulation is simpler than the
ATS path — no flash device and no freshness pipeline, just an in-memory
cache in front of the origin.  :func:`repro.proto.ats.run_prototype`
replays either server with the same network/cost accounting.
"""

from __future__ import annotations

from repro.core.lhr import LhrCache
from repro.policies.base import CachePolicy
from repro.policies.tinylfu import WTinyLfuCache
from repro.proto.ats import CostModel, ServedRequest
from repro.proto.origin import OriginServer
from repro.sim.network import NetworkModel
from repro.traces.request import Request


class CaffeineServer:
    """In-memory cache node (Caffeine-style) with pluggable policy."""

    def __init__(
        self,
        policy: CachePolicy,
        origin: OriginServer | None = None,
        network: NetworkModel | None = None,
        cost_model: CostModel | None = None,
        uses_learning: bool | None = None,
        base_process_bytes: int = 3 << 30,
    ):
        self.policy = policy
        self.origin = origin or OriginServer()
        self.network = network or NetworkModel()
        self.costs = cost_model or CostModel()
        if uses_learning is None:
            uses_learning = hasattr(policy, "hro")
        self.uses_learning = uses_learning
        self.base_process_bytes = base_process_bytes

    def serve(self, req: Request) -> ServedRequest:
        """Run one request through the in-memory cache; returns the
        accounting (no flash device, so ``device_seconds`` is 0)."""
        hit = self.policy.request(req)
        wan_bytes = 0
        if hit:
            latency = self.network.hit_latency(req.size)
        else:
            self.origin.fetch(req.obj_id, req.size)
            wan_bytes = req.size
            latency = self.network.miss_latency(req.size)
        cpu = self.costs.lookup_seconds
        cpu += self.costs.serve_seconds_per_mb * req.size / (1 << 20)
        if self.uses_learning:
            cpu += self.costs.learning_seconds_per_request
        # Caffeine's baseline is itself CPU-heavier than plain LRU (sketch
        # maintenance), so both systems pay the admission-filter cost.
        cpu += self.costs.admit_seconds
        return ServedRequest(
            hit=hit,
            latency_seconds=latency,
            wan_bytes=wan_bytes,
            cpu_seconds=cpu,
            device_seconds=0.0,
        )

    def memory_bytes(self) -> int:
        return (
            self.base_process_bytes
            + self.policy.used_bytes // (1 << 10)  # in-memory index share
            + self.policy.metadata_bytes()
        )


def make_caffeine_baseline(capacity: int, **kwargs) -> CaffeineServer:
    """Unmodified Caffeine: W-TinyLFU policy."""
    return CaffeineServer(WTinyLfuCache(capacity), uses_learning=False, **kwargs)


def make_caffeine_lhr(capacity: int, lhr_kwargs: dict | None = None, **kwargs) -> CaffeineServer:
    """Caffeine with the LHR policy swapped in."""
    return CaffeineServer(LhrCache(capacity, **(lhr_kwargs or {})), **kwargs)
