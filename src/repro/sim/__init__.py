"""Trace-driven cache simulation: engine, metrics, network model and
experiment sweep runner.
"""

from repro.sim.analytical import CheModel, che_hit_ratio_curve, fit_che_model
from repro.sim.engine import simulate
from repro.sim.hitrate_curve import (
    HitRateCurve,
    ReuseDistanceAnalyzer,
    lru_hit_rate_curve,
)
from repro.sim.metrics import (
    SimulationResult,
    WindowMetrics,
    grid_order,
    merge_sweeps,
)
from repro.sim.network import LatencyReport, NetworkModel, measure_latency
from repro.sim.parallel import (
    CellFailure,
    CellSpec,
    PackedTrace,
    SweepCellError,
    merge_shard_results,
    run_sharded,
    run_sweep,
    shard_assignments,
    shard_capacities,
    shard_of,
)
from repro.sim.replication import ReplicatedResult, replicate_comparison
from repro.sim.runner import (
    best_policy,
    build_policy,
    format_table,
    is_known_policy,
    known_policies,
    run_comparison,
    sweep_specs,
)

__all__ = [
    "CellFailure",
    "CellSpec",
    "CheModel",
    "HitRateCurve",
    "LatencyReport",
    "NetworkModel",
    "PackedTrace",
    "ReplicatedResult",
    "ReuseDistanceAnalyzer",
    "SimulationResult",
    "SweepCellError",
    "che_hit_ratio_curve",
    "fit_che_model",
    "grid_order",
    "is_known_policy",
    "lru_hit_rate_curve",
    "merge_sweeps",
    "WindowMetrics",
    "best_policy",
    "build_policy",
    "format_table",
    "known_policies",
    "measure_latency",
    "merge_shard_results",
    "replicate_comparison",
    "run_comparison",
    "run_sharded",
    "run_sweep",
    "shard_assignments",
    "shard_capacities",
    "shard_of",
    "simulate",
    "sweep_specs",
]
