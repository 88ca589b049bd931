"""Tests for the declarative SLO layer (repro.obs.slo)."""

from __future__ import annotations

import json

import pytest

from repro.obs.runs import RunRecord
from repro.obs.slo import SloRule, SloSpec, evaluate_slo


def make_record(**overrides) -> RunRecord:
    defaults = dict(
        command="compare",
        name="t.csv",
        run_id="20260102T030405.000000Z-abcd1234",
        metrics={"requests": 4000, "hits": 1600, "wall_seconds": 1.5},
        cells=[
            {
                "policy": "lru",
                "capacity": 1024,
                "requests": 2000,
                "hits": 700,
                "object_hit_ratio": 0.35,
                "byte_hit_ratio": 0.30,
                "evictions": 150,
                "admissions": 900,
                "runtime_seconds": 0.7,
            },
            {
                "policy": "lhr",
                "capacity": 1024,
                "requests": 2000,
                "hits": 900,
                "object_hit_ratio": 0.45,
                "byte_hit_ratio": 0.40,
                "evictions": 120,
                "admissions": 850,
                "runtime_seconds": 0.8,
                "retrains": 3,
                "drift_windows": 5,
                "drift_detections": 2,
            },
        ],
        events={
            "drift_windows": 5,
            "drift_detections": 2,
            "retrains": 3,
            "failures": 0,
            "events_observed": True,
        },
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


def spec_of(*rules) -> SloSpec:
    return SloSpec.from_dict(
        {"schema": "repro-slo/1", "rules": list(rules), "name": "test"}
    )


class TestRuleValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SloRule(metric="latency_p99", max=1.0)

    def test_needs_a_bound(self):
        with pytest.raises(ValueError, match="min and/or max"):
            SloRule(metric="object_hit_ratio")

    def test_run_scope_metric_rejects_selector(self):
        with pytest.raises(ValueError, match="run-scoped"):
            SloRule(metric="failures", max=0, policy="lru")
        with pytest.raises(ValueError, match="run-scoped"):
            SloRule(metric="wall_seconds", max=10, scenario="churn")

    def test_learner_metric_scope_is_selector_driven(self):
        assert SloRule(metric="retrains", max=5).is_run_scope
        assert not SloRule(metric="retrains", max=5, policy="lhr").is_run_scope

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown SLO rule field"):
            SloRule.from_dict({"metric": "failures", "max": 0, "severity": "high"})
        with pytest.raises(ValueError, match="missing 'metric'"):
            SloRule.from_dict({"max": 0})


class TestSpec:
    def test_schema_gate(self):
        with pytest.raises(ValueError, match="unknown SLO schema"):
            SloSpec.from_dict({"schema": "repro-slo/9", "rules": [{}]})

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError, match="non-empty 'rules'"):
            SloSpec.from_dict({"schema": "repro-slo/1", "rules": []})

    def test_from_file_names_after_filename(self, tmp_path):
        path = tmp_path / "prod.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-slo/1",
                    "rules": [{"metric": "failures", "max": 0}],
                }
            )
        )
        spec = SloSpec.from_file(path)
        assert spec.name == "prod.json"
        assert spec.as_dict()["rules"] == [{"metric": "failures", "max": 0}]


class TestEvaluate:
    def test_all_rules_pass(self):
        report = evaluate_slo(
            spec_of(
                {"metric": "object_hit_ratio", "min": 0.3},
                {"metric": "failures", "max": 0},
                {"metric": "wall_seconds", "max": 10},
                {"metric": "retrains", "max": 5},
            ),
            make_record(),
        )
        assert report.ok
        assert "verdict: OK" in report.render_text()

    def test_floor_fails_on_worst_cell(self):
        report = evaluate_slo(
            spec_of({"metric": "object_hit_ratio", "min": 0.4}), make_record()
        )
        assert not report.ok
        (violation,) = report.violations
        assert violation.observed == 0.35  # lru, the worst of the two
        assert "worst of 2 cells: lru" in violation.detail
        assert "verdict: VIOLATED" in report.render_text()

    def test_selector_narrows_to_matching_cells(self):
        report = evaluate_slo(
            spec_of(
                {"metric": "object_hit_ratio", "min": 0.4, "policy": "lhr"}
            ),
            make_record(),
        )
        assert report.ok

    def test_no_matching_cells_fails(self):
        """A floor must never pass silently because the cell is missing."""
        report = evaluate_slo(
            spec_of(
                {"metric": "object_hit_ratio", "min": 0.1, "policy": "gdsf"}
            ),
            make_record(),
        )
        assert not report.ok
        assert "no cells matched" in report.violations[0].detail

    def test_ceiling_fails_on_highest_cell(self):
        report = evaluate_slo(
            spec_of({"metric": "evictions", "max": 130}), make_record()
        )
        assert not report.ok
        assert report.violations[0].observed == 150

    def test_learner_trio_cell_scope_with_selector(self):
        report = evaluate_slo(
            spec_of({"metric": "retrains", "max": 2, "policy": "lhr"}),
            make_record(),
        )
        assert not report.ok
        assert report.violations[0].observed == 3

    def test_run_scope_reads_event_digest(self):
        record = make_record()
        record.events["failures"] = 2
        report = evaluate_slo(spec_of({"metric": "failures", "max": 0}), record)
        assert not report.ok
        assert report.violations[0].observed == 2

    def test_unobserved_run_fails_event_rules(self):
        record = make_record()
        record.events = {"events_observed": False, "failures": 0}
        report = evaluate_slo(spec_of({"metric": "retrains", "max": 5}), record)
        assert not report.ok
        assert "not observed" in report.violations[0].detail

    def test_requests_total_reads_metrics_snapshot(self):
        report = evaluate_slo(
            spec_of({"metric": "requests_total", "min": 4000}), make_record()
        )
        assert report.ok

    def test_missing_cell_metric_fails(self):
        record = make_record()
        del record.cells[0]["evictions"]
        report = evaluate_slo(
            spec_of({"metric": "evictions", "max": 1000}), record
        )
        assert not report.ok
        assert "lacks" in report.violations[0].detail

    def test_report_round_trips_through_json(self):
        report = evaluate_slo(
            spec_of({"metric": "object_hit_ratio", "min": 0.4}), make_record()
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is False
        assert payload["slo"] == "test"
        assert any(not rule["ok"] for rule in payload["rules"])
