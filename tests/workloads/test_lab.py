"""The workload lab runner and its ``repro workload`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import MemoryRecorder
from repro.traces.loader import load_trace_csv
from repro.workloads import (
    ScenarioConfig,
    known_scenarios,
    packed_unique_bytes,
    run_workload_lab,
)
from repro.workloads.scenarios import generate_packed

CHURN = ScenarioConfig.make("churn", 2000, 3)


class TestRunWorkloadLab:
    def test_basic_report_shape(self):
        report = run_workload_lab([CHURN], ["lru", "lhr"])
        assert report.policies == ["lru", "lhr"]
        scenario = report.scenario("churn")
        assert scenario.num_requests == 2000
        assert len(scenario.cells) == 2
        cell = scenario.cell("lru")
        assert cell.requests == 2000
        assert 0.0 <= cell.object_hit_ratio <= 1.0

    def test_drift_counts_only_for_drift_policies(self):
        report = run_workload_lab(
            [ScenarioConfig.make("churn", 4000, 0)], ["lru", "lhr"]
        )
        scenario = report.scenario("churn")
        lru = scenario.cell("lru")
        lhr = scenario.cell("lhr")
        assert (lru.drift_windows, lru.drift_detections, lru.retrains) == (0, 0, 0)
        assert lhr.drift_windows > 0
        assert lhr.retrains > 0
        assert lhr.drift_detections <= lhr.drift_windows

    def test_serial_and_parallel_identical(self):
        serial = run_workload_lab([CHURN], ["lru", "lhr"], jobs=0)
        parallel = run_workload_lab([CHURN], ["lru", "lhr"], jobs=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_capacity_from_unique_bytes(self):
        report = run_workload_lab([CHURN], ["lru"], capacity_fraction=0.25)
        scenario = report.scenario("churn")
        expected = packed_unique_bytes(generate_packed(CHURN))
        assert scenario.unique_bytes == expected
        assert scenario.capacity == int(0.25 * expected)

    def test_repeated_scenario_counts_stay_distinct(self):
        # Two churn configs in one matrix: the lab_run tag keeps each
        # sweep's drift events attributed to its own report.
        calm = ScenarioConfig.make("churn", 3000, 1, churn_fraction=0.0)
        stormy = ScenarioConfig.make("churn", 3000, 1, alpha=1.3)
        report = run_workload_lab([calm, stormy], ["lhr"])
        first, second = report.reports
        assert first.config["params"] == {"churn_fraction": 0.0}
        assert second.config["params"] == {"alpha": 1.3}
        total_windows = first.cell("lhr").drift_windows + second.cell(
            "lhr"
        ).drift_windows
        assert total_windows > 0

    def test_recorder_receives_tagged_events(self):
        recorder = MemoryRecorder()
        run_workload_lab([CHURN], ["lhr"], recorder=recorder)
        drift_events = [
            e for e in recorder.events if e["event"] == "lhr.drift"
        ]
        assert drift_events
        assert all(e["scenario"] == "churn" for e in drift_events)
        assert all(e["lab_run"] == 0 for e in drift_events)

    def test_analyze_attaches_divergence(self):
        report = run_workload_lab(
            [ScenarioConfig.make("churn", 1200, 3)],
            ["lru", "lhr"],
            analyze=True,
            analyze_window=400,
        )
        divergence = report.scenario("churn").divergence
        assert divergence is not None
        assert divergence["policy"] == "lhr"
        assert 0.0 <= divergence["agreement_rate"] <= 1.0
        assert "miss_taxonomy" in divergence

    def test_analyze_skipped_when_policy_absent(self):
        report = run_workload_lab(
            [ScenarioConfig.make("churn", 800, 3)], ["lru"], analyze=True
        )
        assert report.scenario("churn").divergence is None

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError, match="no scenario configs"):
            run_workload_lab([], ["lru"])

    def test_bad_capacity_fraction_rejected(self):
        with pytest.raises(ValueError, match="capacity_fraction"):
            run_workload_lab([CHURN], ["lru"], capacity_fraction=0.0)

    def test_render_text_contains_grid(self):
        report = run_workload_lab([CHURN], ["lru", "lhr"])
        text = report.render_text()
        assert "scenario churn" in text
        assert "lru" in text and "lhr" in text
        assert "retrain" in text

    def test_json_roundtrip(self):
        report = run_workload_lab([CHURN], ["lru"])
        payload = json.loads(report.to_json())
        assert payload["policies"] == ["lru"]
        assert payload["scenarios"][0]["scenario"] == "churn"


class TestWorkloadCli:
    def test_list(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in known_scenarios():
            assert name in out

    def test_describe(self, capsys):
        assert main(["workload", "describe", "--scenario", "churn"]) == 0
        out = capsys.readouterr().out
        assert "churn_fraction" in out

    def test_describe_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["workload", "describe", "--scenario", "bogus"])

    def test_generate_writes_loadable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "churn.csv"
        assert main([
            "workload", "generate", "--scenario", "churn",
            "--requests", "300", "--seed", "5", "-o", str(out_path),
        ]) == 0
        trace = load_trace_csv(out_path)
        assert len(trace) == 300
        assert len({(r.obj_id, r.size) for r in trace}) == len(trace.unique_contents())

    def test_generate_with_param_override(self, tmp_path):
        out_path = tmp_path / "churn.csv"
        assert main([
            "workload", "generate", "--scenario", "churn",
            "--requests", "200", "--seed", "5",
            "--param", "num_contents=50", "-o", str(out_path),
        ]) == 0
        trace = load_trace_csv(out_path)
        assert len(trace.unique_contents()) <= 50

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit, match="key=value"):
            main([
                "workload", "generate", "--scenario", "churn",
                "--param", "alpha", "-o", "/tmp/x.csv",
            ])

    def test_non_numeric_param(self):
        with pytest.raises(SystemExit, match="expects a number"):
            main([
                "workload", "generate", "--scenario", "churn",
                "--param", "alpha=high", "-o", "/tmp/x.csv",
            ])

    def test_unknown_param_rejected(self):
        with pytest.raises(SystemExit, match="unknown parameters"):
            main([
                "workload", "generate", "--scenario", "churn",
                "--param", "bogus=1", "-o", "/tmp/x.csv",
            ])

    def test_run_text_report(self, capsys):
        assert main([
            "workload", "run", "--scenario", "churn",
            "--policies", "lru,lhr", "--requests", "1500", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario churn" in out
        assert "lhr" in out
        assert "retrain" in out

    def test_run_json_report_and_file(self, tmp_path, capsys):
        json_path = tmp_path / "lab.json"
        assert main([
            "workload", "run", "--scenario", "churn,diurnal",
            "--policies", "lru", "--requests", "600",
            "--format", "json", "--json", str(json_path),
            "--trace-out", str(tmp_path / "lab.trace.json"),
        ]) == 0
        payload = json.loads(json_path.read_text())
        names = [s["scenario"] for s in payload["scenarios"]]
        assert names == ["churn", "diurnal"]
        captured = capsys.readouterr()
        # Write confirmations go to stderr: stdout is the report alone.
        assert json.loads(captured.out) == payload
        assert "wrote lab report" in captured.err
        assert "wrote timeline trace" in captured.err

    def test_run_all_expands_registry(self, capsys):
        assert main([
            "workload", "run", "--scenario", "all",
            "--policies", "lru", "--requests", "400",
        ]) == 0
        out = capsys.readouterr().out
        for name in known_scenarios():
            assert f"scenario {name}" in out

    def test_run_unknown_policy(self):
        with pytest.raises((SystemExit, ValueError)):
            main([
                "workload", "run", "--scenario", "churn",
                "--policies", "nope", "--requests", "300",
            ])
