"""Tests for the persistent run ledger (repro.obs.runs)."""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.obs.runs import (
    RUN_SCHEMA,
    SERIES_FIELDS,
    RunLedger,
    config_digest,
    current_git_rev,
    diff_records,
    digest_events,
    record_from_results,
    series_from_results,
)
from repro.sim import build_policy, simulate
from repro.traces import irm_trace


def windowed_results(seed: int = 7, policies=("lru", "s4lru")):
    trace = irm_trace(1500, 80, alpha=0.8, equal_size=64, seed=seed)
    capacity = 16 * 64
    results = []
    for name in policies:
        policy = build_policy(name, capacity)
        results.append(simulate(policy, trace, window_requests=300))
    return results


def make_ledger(tmp_path, times=None):
    """Ledger with an injected clock stepping through ``times`` (or a
    fixed instant, exercising the collision suffix)."""
    if times is None:
        clock = lambda: datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
    else:
        stamps = iter(times)
        last = times[-1]
        clock = lambda: next(stamps, last)
    return RunLedger(tmp_path / "ledger", clock=clock)


class TestProvenance:
    def test_config_digest_is_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({})) == 16

    def test_git_rev_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "cafebabe")
        assert current_git_rev() == "cafebabe"

    def test_digest_events_counts_lifecycle(self):
        events = [
            {"event": "lhr.drift", "drifted": False},
            {"event": "lhr.drift", "drifted": True},
            {"event": "lhr.retrain"},
            {"event": "sweep.cell_failed"},
            {"event": "sim.window"},  # unrelated events are ignored
        ]
        digest = digest_events(events)
        assert digest == {
            "drift_windows": 2,
            "drift_detections": 1,
            "retrains": 1,
            "failures": 1,
        }
        assert digest_events(None)["retrains"] == 0


class TestRecordRoundtrip:
    def test_series_bit_matches_window_metrics(self, tmp_path):
        """The acceptance bar: stored npz columns equal the in-memory
        WindowMetrics stream exactly."""
        results = windowed_results()
        record = record_from_results(
            "compare", {"seed": 7}, results, name="roundtrip"
        )
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(record)
        loaded = ledger.load(run_id)
        assert loaded.schema == RUN_SCHEMA
        assert loaded.run_id == run_id
        assert loaded.name == "roundtrip"
        assert loaded.config == {"seed": 7}
        for i, result in enumerate(results):
            columns = loaded.cell_series(i)
            assert set(columns) == set(SERIES_FIELDS)
            for field_name in SERIES_FIELDS:
                expected = np.array(
                    [getattr(w, field_name) for w in result.windows],
                    dtype=np.int64,
                )
                assert np.array_equal(columns[field_name], expected)

    def test_manifest_metrics_and_cells(self, tmp_path):
        results = windowed_results()
        record = record_from_results("compare", {"x": 1}, results)
        ledger = make_ledger(tmp_path)
        loaded = ledger.load(ledger.record(record))
        assert loaded.metrics["requests"] == sum(r.requests for r in results)
        assert loaded.metrics["hits"] == sum(r.hits for r in results)
        cell = loaded.cells[0]
        assert cell["policy"] == results[0].policy
        assert cell["evictions"] == results[0].evictions
        assert cell["windows"] == len(results[0].windows)
        assert loaded.events["events_observed"] is False
        assert loaded.config_digest == config_digest({"x": 1})

    def test_unwindowed_run_has_no_series(self, tmp_path):
        trace = irm_trace(400, 40, equal_size=32, seed=3)
        result = simulate(build_policy("lru", 8 * 32), trace)
        record = record_from_results("simulate", {}, [result])
        assert series_from_results([result]) == {}
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(record)
        assert not (ledger.root / run_id / "series.npz").exists()
        assert ledger.load(run_id).window_count() == 0

    def test_window_count_survives_manifest_only_load(self, tmp_path):
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(
            record_from_results("compare", {}, windowed_results())
        )
        assert ledger.load(run_id, series=False).window_count() == 5

    def test_cell_tags_merge(self, tmp_path):
        results = windowed_results()
        record = record_from_results(
            "workload",
            {},
            results,
            cell_tags=[{"scenario": "churn", "retrains": 2}, {"scenario": "churn"}],
        )
        assert record.cells[0]["scenario"] == "churn"
        assert record.cells[0]["retrains"] == 2
        assert record.cell_key(record.cells[0]).startswith("churn/")


class TestLedger:
    def test_same_clock_ids_stay_unique(self, tmp_path):
        ledger = make_ledger(tmp_path)  # frozen clock
        results = windowed_results()
        ids = [
            ledger.record(record_from_results("compare", {"n": 1}, results))
            for _ in range(3)
        ]
        assert len(set(ids)) == 3
        assert sorted(ids) == ids  # -N suffixes keep recording order

    def test_resolve_refs(self, tmp_path):
        ledger = make_ledger(tmp_path)
        results = windowed_results()
        first = ledger.record(record_from_results("compare", {"n": 1}, results))
        second = ledger.record(record_from_results("compare", {"n": 1}, results))
        assert ledger.resolve("latest") == second
        assert ledger.resolve("latest~1") == first
        assert ledger.resolve(first) == first  # exact id beats prefix clash
        with pytest.raises(ValueError, match="reaches past"):
            ledger.resolve("latest~9")
        with pytest.raises(ValueError, match="no run matching"):
            ledger.resolve("zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.resolve(first[:8])

    def test_empty_ledger_resolve_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            make_ledger(tmp_path).resolve("latest")

    def test_manifest_less_directory_is_invisible(self, tmp_path):
        """A crashed writer leaves a run directory without a manifest;
        readers must skip it (the manifest is the commit marker)."""
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(
            record_from_results("compare", {}, windowed_results())
        )
        torn = ledger.root / "19990101T000000.000000Z-deadbeef"
        torn.mkdir()
        (torn / "series.npz").write_bytes(b"torn")
        assert ledger.run_ids() == [run_id]
        assert len(ledger.summaries()) == 1

    def test_gc_prunes_oldest_deterministically(self, tmp_path):
        times = [
            datetime(2026, 1, 2, 3, 4, s, tzinfo=timezone.utc)
            for s in range(20)
        ]
        ledger = make_ledger(tmp_path, times=times)
        results = windowed_results()
        ids = [
            ledger.record(record_from_results("compare", {"n": i}, results))
            for i in range(4)
        ]
        assert ledger.gc(2, dry_run=True) == ids[:2]
        assert len(ledger.run_ids()) == 4  # dry run touched nothing
        assert ledger.gc(2) == ids[:2]
        assert ledger.run_ids() == ids[2:]
        assert ledger.gc(2) == []  # idempotent
        with pytest.raises(ValueError):
            ledger.gc(-1)

    def test_export_csv(self, tmp_path):
        ledger = make_ledger(tmp_path)
        results = windowed_results()
        run_id = ledger.record(record_from_results("compare", {}, results))
        out = tmp_path / "series.csv"
        rows = ledger.export_csv(run_id, out)
        assert rows == sum(len(r.windows) for r in results)
        with out.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows
        first = parsed[0]
        assert first["policy"] == results[0].policy
        assert int(first["requests"]) == results[0].windows[0].requests
        assert int(first["evictions"]) == results[0].windows[0].evictions


class TestDiff:
    def test_identical_seeds_diff_to_zero(self, tmp_path):
        ledger = make_ledger(tmp_path)
        a = ledger.load(
            ledger.record(
                record_from_results("compare", {"s": 7}, windowed_results(7))
            )
        )
        b = ledger.load(
            ledger.record(
                record_from_results("compare", {"s": 7}, windowed_results(7))
            )
        )
        diff = diff_records(a, b)
        assert diff.identical
        assert "verdict: IDENTICAL" in diff.render_text()
        assert all(d.windows_differing == 0 for d in diff.deltas)

    def test_different_seeds_diff_per_window(self, tmp_path):
        ledger = make_ledger(tmp_path)
        a = ledger.load(
            ledger.record(
                record_from_results("compare", {"s": 7}, windowed_results(7))
            )
        )
        b = ledger.load(
            ledger.record(
                record_from_results("compare", {"s": 8}, windowed_results(8))
            )
        )
        diff = diff_records(a, b)
        assert not diff.identical
        assert any(d.windows_differing > 0 for d in diff.deltas)
        assert any(d.max_window_hit_ratio_delta > 0 for d in diff.deltas)
        assert any("config digests differ" in note for note in diff.notes)
        assert "verdict: DIFFERENT" in diff.render_text()

    def test_unmatched_cells_reported(self, tmp_path):
        ledger = make_ledger(tmp_path)
        a = ledger.load(
            ledger.record(
                record_from_results(
                    "compare", {}, windowed_results(policies=("lru",))
                )
            )
        )
        b = ledger.load(
            ledger.record(
                record_from_results(
                    "compare", {}, windowed_results(policies=("s4lru",))
                )
            )
        )
        diff = diff_records(a, b)
        assert not diff.identical
        assert diff.only_a and diff.only_b
        assert json.loads(json.dumps(diff.as_dict()))["identical"] is False


def sample_spans():
    return [
        {"id": 1, "name": "cli.compare", "cat": "cli", "start": 0.0,
         "end": 2.0, "pid": 100, "tid": 1, "parent": None},
        {"id": 2, "name": "sweep.run", "cat": "sweep", "start": 0.1,
         "end": 1.9, "pid": 100, "tid": 1, "parent": 1},
        {"id": 3, "name": "lru@1024", "cat": "cell", "start": 0.2,
         "end": 1.5, "pid": 200, "tid": 1, "parent": 2,
         "parent_pid": 100, "args": {"hit_ratio": 0.5}},
    ]


class TestSpansPersistence:
    def test_spans_sidecar_roundtrip(self, tmp_path):
        ledger = make_ledger(tmp_path)
        record = record_from_results(
            "compare", {"n": 1}, windowed_results(), spans=sample_spans()
        )
        run_id = ledger.record(record)
        assert (ledger.root / run_id / RunLedger.SPANS).exists()
        loaded = ledger.load(run_id)
        assert loaded.spans == sample_spans()
        assert loaded.span_count() == 3
        assert loaded.summary()["spans"] == 3

    def test_sidecar_lands_before_manifest(self, tmp_path):
        # A committed run (manifest present) must never point at a
        # missing spans file: spans.json is written first.
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(
            record_from_results(
                "compare", {}, windowed_results(), spans=sample_spans()
            )
        )
        run_dir = ledger.root / run_id
        assert (run_dir / RunLedger.MANIFEST).exists()
        assert (run_dir / RunLedger.SPANS).exists()
        payload = json.loads((run_dir / RunLedger.SPANS).read_text())
        assert payload == sample_spans()

    def test_span_count_survives_manifest_only_load(self, tmp_path):
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(
            record_from_results(
                "compare", {}, windowed_results(), spans=sample_spans()
            )
        )
        skinny = ledger.load(run_id, series=False, spans=False)
        assert skinny.spans == []
        assert skinny.span_count() == 3  # falls back to the manifest count
        assert skinny.summary()["spans"] == 3

    def test_untraced_run_has_no_sidecar(self, tmp_path):
        ledger = make_ledger(tmp_path)
        run_id = ledger.record(
            record_from_results("compare", {}, windowed_results())
        )
        assert not (ledger.root / run_id / RunLedger.SPANS).exists()
        loaded = ledger.load(run_id)
        assert loaded.spans == []
        assert loaded.span_count() == 0
