"""Trace-driven cache simulation: engine, metrics, network model and
experiment sweep runner.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.analytical": ("CheModel", "che_hit_ratio_curve", "fit_che_model"),
        "repro.sim.engine": ("simulate",),
        "repro.sim.hitrate_curve": (
            "HitRateCurve", "ReuseDistanceAnalyzer", "lru_hit_rate_curve",
        ),
        "repro.sim.metrics": ("SimulationResult", "WindowMetrics", "grid_order"),
        "repro.sim.network": ("LatencyReport", "NetworkModel", "measure_latency"),
        "repro.sim.parallel": (
            "CellFailure", "CellSpec", "SweepCellError", "run_sweep",
        ),
        "repro.sim.replication": ("ReplicatedResult", "replicate_comparison"),
        "repro.sim.runner": (
            "best_policy", "build_policy", "format_table", "is_known_policy",
            "known_policies", "run_comparison", "sweep_specs",
        ),
        "repro.traces.packed": ("PackedTrace",),
    },
)

__all__ = list(_EXPORTS)
