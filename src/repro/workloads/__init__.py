"""Non-stationary workload lab: scenario registry, generators and the
scenario-matrix experiment runner.

See ``docs/WORKLOADS.md`` for the scenario catalogue and the drift-thrash
findings, and ``repro workload --help`` for the CLI surface.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.lab": (
            "ScenarioCell", "ScenarioReport", "WorkloadLabReport",
            "packed_unique_bytes", "run_workload_lab",
        ),
        "repro.workloads.scenarios": (
            "SCENARIO_REGISTRY", "Scenario", "ScenarioConfig", "generate_packed",
            "generate_trace", "get_scenario", "known_scenarios", "register_scenario",
        ),
        "repro.util.sampling": ("require_seed",),
    },
)

__all__ = list(_EXPORTS)
