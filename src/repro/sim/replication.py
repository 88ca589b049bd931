"""Replicated experiments: seed sweeps with summary statistics.

Single-trace numbers hide generator noise.  This harness re-runs a
(policy, capacity) comparison across several stand-in trace seeds and
reports mean ± sample standard deviation per policy — the form results
should take before any "X beats Y" claim.  Each seed's trace is
generated once and replayed through :func:`~repro.sim.runner.run_comparison`,
which optionally fans the policies out over worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.runner import run_comparison
from repro.traces.production import PRODUCTION_SPECS, generate_production_trace


@dataclass(frozen=True)
class ReplicatedResult:
    """Per-policy summary over a seed sweep."""

    policy: str
    trace: str
    capacity: int
    seeds: tuple[int, ...]
    object_hit_ratios: tuple[float, ...]
    byte_hit_ratios: tuple[float, ...]

    @staticmethod
    def _mean(values: tuple[float, ...]) -> float:
        return sum(values) / len(values) if values else 0.0

    @staticmethod
    def _std(values: tuple[float, ...]) -> float:
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )

    @property
    def mean_object_hit(self) -> float:
        return self._mean(self.object_hit_ratios)

    @property
    def std_object_hit(self) -> float:
        return self._std(self.object_hit_ratios)

    @property
    def mean_byte_hit(self) -> float:
        return self._mean(self.byte_hit_ratios)

    @property
    def std_byte_hit(self) -> float:
        return self._std(self.byte_hit_ratios)

    def as_row(self) -> dict:
        return {
            "policy": self.policy,
            "trace": self.trace,
            "object_hit": f"{self.mean_object_hit:.3f}±{self.std_object_hit:.3f}",
            "byte_hit": f"{self.mean_byte_hit:.3f}±{self.std_byte_hit:.3f}",
            "seeds": len(self.seeds),
        }


def replicate_comparison(
    spec_name: str,
    policy_names: list[str],
    cache_gb: float,
    seeds: list[int],
    scale: float = 0.01,
    policy_kwargs: dict[str, dict] | None = None,
    workers: int = 0,
) -> list[ReplicatedResult]:
    """Run every policy over a freshly generated trace for every seed.

    ``workers > 1`` fans each seed's policies out over that many worker
    processes; results are identical either way (each cell is
    deterministic in its seed).
    """
    if spec_name not in PRODUCTION_SPECS:
        raise ValueError(f"unknown trace spec {spec_name!r}")
    if not seeds:
        raise ValueError("need at least one seed")
    spec = PRODUCTION_SPECS[spec_name]
    capacity = spec.scaled_cache_bytes(cache_gb, scale)
    seeds = sorted(seeds)
    # One row per seed, in policy_names order (the grid has one capacity).
    runs = [
        run_comparison(
            generate_production_trace(spec, scale=scale, seed=seed),
            policy_names,
            [capacity],
            policy_kwargs=policy_kwargs,
            parallel=workers,
        )
        for seed in seeds
    ]
    return [
        ReplicatedResult(
            policy=name,
            trace=spec_name,
            capacity=capacity,
            seeds=tuple(seeds),
            object_hit_ratios=tuple(run[column].object_hit_ratio for run in runs),
            byte_hit_ratios=tuple(run[column].byte_hit_ratio for run in runs),
        )
        for column, name in enumerate(policy_names)
    ]
