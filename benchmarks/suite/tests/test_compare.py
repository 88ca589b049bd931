"""``compare`` verdicts and exit rule."""

import statistics

from benchmarks.suite.compare import compare_reports, verdict
from benchmarks.suite.harness import summary

RPS = {"name": "replay_rps", "better": "higher", "bound": 0.1, "exact": False}
CPU = {"name": "cpu_s_per_mreq", "better": "lower", "bound": 0.1, "exact": False}
HIT = {"name": "object_hit_ratio", "better": "higher", "bound": 0.05, "exact": True}


def test_regressed_when_worse_beyond_bound_and_steady():
    base = summary([100.0, 101.0, 99.0, 100.5, 99.5])
    new = summary([80.0, 81.0, 79.0, 80.5, 79.5])
    assert verdict(RPS, base, new)[0] == "regressed"
    assert verdict(CPU, new, base)[0] == "regressed"


def test_improved_when_better_beyond_bound_and_steady():
    base = summary([100.0, 101.0, 99.0, 100.5, 99.5])
    new = summary([120.0, 121.0, 119.0, 120.5, 119.5])
    assert verdict(RPS, base, new)[0] == "improved"


def test_unchanged_within_bound():
    base = summary([100.0, 101.0, 99.0, 100.5, 99.5])
    new = summary([97.0, 98.0, 96.0, 97.5, 96.5])
    assert verdict(RPS, base, new)[0] == "unchanged"


def test_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    base = summary([60.0, 100.0, 140.0, 80.0, 120.0])
    new = summary([50.0, 85.0, 130.0, 70.0, 110.0])
    assert verdict(RPS, base, new)[0] == "unresolved"
    # A large worsening still needs separated runs when the spread is wide.
    worse = summary([40.0, 70.0, 100.0, 55.0, 85.0])
    assert statistics.median(worse["samples"]) < 0.9 * base["median"]
    assert verdict(RPS, base, worse)[0] == "unresolved"


def test_noisy_but_separated_is_decided():
    base = summary([60.0, 70.0, 80.0, 65.0, 75.0])
    new = summary([200.0, 260.0, 320.0, 230.0, 290.0])
    assert verdict(RPS, base, new)[0] == "improved"


def test_exact_metrics_tolerate_no_change():
    base = summary([0.5])
    assert verdict(HIT, base, summary([0.5]))[0] == "unchanged"
    assert verdict(HIT, base, summary([0.4999]))[0] == "regressed"
    assert verdict(HIT, base, summary([0.5001]))[0] == "improved"


def _report(rps, failed=0):
    return {
        "ops_attempted": 10,
        "ops_failed": failed,
        "workloads": {"w": {"end_to_end": {"replay_rps": summary(rps)}}},
    }


def test_compare_fails_on_regression_or_more_failures():
    bounds = {"replay_rps": RPS}
    steady = [100.0, 101.0, 99.0]
    rows, failed = compare_reports(_report(steady), _report(steady), bounds)
    assert not failed and rows[0][-1] == "unchanged"
    rows, failed = compare_reports(_report(steady), _report([50.0, 51.0, 49.0]), bounds)
    assert failed and rows[0][-1] == "regressed"
    _, failed = compare_reports(_report(steady), _report(steady, failed=1), bounds)
    assert failed
