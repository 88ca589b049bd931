"""Non-stationary workload lab benchmark: one churn scenario cell.

Not a paper experiment — the policy grid runs over a churn scenario via
the same ``run_comparison`` engine the benchmarks use, and the per-cell
hit ratios and drift/retrain counts are archived as ``workloads.txt``.
The default-scale cell's exact counters are pinned in
``tests/workloads/test_golden_scenarios.py``.
"""

from benchmarks.common import JOBS, SCALE, SEED, emit, format_rows
from repro.workloads import ScenarioConfig, run_workload_lab

#: The lab grid for the churn cell: the classic baseline, the paper's
#: cache, and the sketch-based filter — cheap enough for CI at any scale.
POLICIES = ("lru", "lhr", "w-tinylfu")

#: Churn length scales with REPRO_SCALE like every other benchmark
#: (default 0.01 -> 8k requests; paper-ish scale at 1.0 -> 800k).
NUM_REQUESTS = max(int(800_000 * SCALE), 4000)


def run_lab():
    config = ScenarioConfig.make("churn", NUM_REQUESTS, SEED)
    return run_workload_lab([config], list(POLICIES), jobs=JOBS)


def test_workload_churn_cell(benchmark):
    report = benchmark.pedantic(run_lab, rounds=1, iterations=1)
    scenario = report.scenario("churn")
    emit("workloads", format_rows([cell.as_dict() for cell in scenario.cells]))

    lru = scenario.cell("lru")
    lhr = scenario.cell("lhr")
    # Churn is where learning from HRO pays: LHR must beat LRU, and its
    # drift pipeline must actually have run.
    assert lhr.object_hit_ratio > lru.object_hit_ratio
    assert lhr.drift_windows > 0
    assert lhr.retrains > 0
