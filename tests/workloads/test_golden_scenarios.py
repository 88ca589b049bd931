"""Scenario-golden regression corpus: pinned hit ratios per scenario.

``golden_scenarios.json`` freezes what every registered policy does on a
small instance of every registered scenario — counters exactly, ratios
to 1e-9, plus the drift/retrain activity of the cells that have a drift
pipeline.  This is the non-stationary companion to
``tests/sim/test_golden.py``: any change to a generator, the sweep
engine, or a policy shows up here as a diff.

Regenerate after an *intentional* behaviour change with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/workloads/test_golden_scenarios.py -q

and review the fixture diff like code.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sim import known_policies
from repro.workloads import ScenarioConfig, known_scenarios, run_workload_lab

GOLDEN_PATH = Path(__file__).parent / "golden_scenarios.json"

#: Fixture contract: change these and every pinned number changes too.
NUM_REQUESTS = 800
SEED = 7
CAPACITY_FRACTION = 0.15
GOLDEN_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


def compute_golden() -> dict:
    configs = [
        ScenarioConfig.make(name, NUM_REQUESTS, SEED) for name in known_scenarios()
    ]
    report = run_workload_lab(
        configs,
        known_policies(),
        capacity_fraction=CAPACITY_FRACTION,
        policy_kwargs=GOLDEN_KWARGS,
    )
    scenarios = {}
    for scenario_report in report.reports:
        scenarios[scenario_report.scenario] = {
            "capacity": scenario_report.capacity,
            "unique_bytes": scenario_report.unique_bytes,
            "policies": {cell.policy: cell.as_dict() for cell in scenario_report.cells},
        }
    return {
        "num_requests": NUM_REQUESTS,
        "seed": SEED,
        "capacity_fraction": CAPACITY_FRACTION,
        "policy_kwargs": GOLDEN_KWARGS,
        "scenarios": scenarios,
    }


def regenerating() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def test_golden_scenarios():
    current = compute_golden()
    if regenerating() or not GOLDEN_PATH.exists():
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}; review and commit the diff")

    golden = json.loads(GOLDEN_PATH.read_text())
    for key in ("num_requests", "seed", "capacity_fraction"):
        assert golden[key] == current[key], "fixture contract drifted"
    assert sorted(golden["scenarios"]) == sorted(current["scenarios"]), (
        "scenario registry changed; regenerate the fixture deliberately"
    )

    count_keys = (
        "requests", "hits", "evictions", "admissions",
        "drift_windows", "drift_detections", "retrains",
    )
    ratio_keys = ("object_hit_ratio", "byte_hit_ratio")
    mismatches = []
    for scenario, pinned_scenario in golden["scenarios"].items():
        now_scenario = current["scenarios"][scenario]
        if pinned_scenario["capacity"] != now_scenario["capacity"]:
            mismatches.append(
                f"{scenario}.capacity: {pinned_scenario['capacity']} -> "
                f"{now_scenario['capacity']}"
            )
        assert sorted(pinned_scenario["policies"]) == sorted(
            now_scenario["policies"]
        ), "policy registry changed; regenerate the fixture deliberately"
        for policy, pinned in pinned_scenario["policies"].items():
            now = now_scenario["policies"][policy]
            for key in count_keys:
                if pinned[key] != now[key]:
                    mismatches.append(
                        f"{scenario}.{policy}.{key}: {pinned[key]} -> {now[key]}"
                    )
            for key in ratio_keys:
                if abs(pinned[key] - now[key]) > 1e-9:
                    mismatches.append(
                        f"{scenario}.{policy}.{key}: {pinned[key]} -> {now[key]}"
                    )
    assert not mismatches, (
        "behaviour drifted from the scenario-golden corpus (regenerate only "
        "if intentional):\n" + "\n".join(mismatches)
    )


#: Counters of the churn cell ``benchmarks/bench_workloads.py`` runs at
#: its default scale: 8,000 requests, seed 1, the lab's default capacity
#: fraction.  The corpus above replays 800-request scenarios only.
CHURN_CELL = {
    "lru": dict(
        hits=2626, admissions=5374, evictions=5334,
        drift_windows=0, drift_detections=0, retrains=0,
    ),
    "lhr": dict(
        hits=4196, admissions=1903, evictions=1799,
        drift_windows=15, drift_detections=11, retrains=11,
    ),
    "w-tinylfu": dict(
        hits=3585, admissions=1720, evictions=1676,
        drift_windows=0, drift_detections=0, retrains=0,
    ),
}


def test_churn_benchmark_cell():
    report = run_workload_lab(
        [ScenarioConfig.make("churn", 8000, 1)], list(CHURN_CELL)
    )
    scenario = report.scenario("churn")
    assert scenario.capacity == 1_966_079
    measured = {
        cell.policy: {key: cell.as_dict()[key] for key in CHURN_CELL[cell.policy]}
        for cell in scenario.cells
    }
    assert measured == CHURN_CELL
