"""Learner observatory: streaming calibration math, shadow drift
statistics, the telemetry sink, and serial/parallel equivalence.

The calibration tests are the load-bearing part: the per-window moments
must merge associatively (any sharding of the windows yields the serial
aggregate, which is what lets ``--jobs N`` sweeps report the same
calibration as serial runs) and must be NaN-safe on windows with no
scored requests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.detection import DriftDetector
from repro.core.lhr import LhrCache
from repro.obs import Observation
from repro.obs.learner import (
    CAL_BINS,
    NULL_LEARNER,
    RETRAIN_CAUSES,
    CalibrationStats,
    LearnerSeries,
    LearnerTelemetry,
    analyze_learner,
    columns_to_series,
    kendall_tau,
    noise_threshold,
    rank_overlap,
    realized_reuse,
    series_equal,
    series_to_columns,
    top_ranked_ids,
)
from repro.obs.runs import RunLedger, record_from_results
from repro.sim import run_comparison, simulate
from repro.traces.synthetic import irm_trace


@pytest.fixture(scope="module")
def learner_trace():
    return irm_trace(
        1200, 80, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=7,
        name="learner",
    )


def run_with_learner(trace, capacity, jobs=0, policies=("lhr", "lru")):
    obs = Observation.sidecars_only(learner=LearnerTelemetry())
    results = run_comparison(
        trace,
        list(policies),
        [capacity],
        window_requests=200,
        parallel=jobs,
        obs=obs,
    )
    return results, obs


# ----------------------------------------------------------------------
# Streaming calibration moments
# ----------------------------------------------------------------------


class TestCalibrationStats:
    def test_empty_input_is_identity_and_nan_safe(self):
        stats = CalibrationStats.from_arrays([], [])
        assert stats.count == 0
        assert math.isnan(stats.brier)
        assert math.isnan(stats.expected_calibration_error())
        # Merging the identity changes nothing.
        other = CalibrationStats.from_arrays([0.5, 0.9], [0.0, 1.0])
        merged = other.merge(stats)
        assert merged.count == other.count
        assert merged.brier == pytest.approx(other.brier)

    def test_brier_matches_direct_mean_squared_error(self):
        p = np.array([0.1, 0.9, 0.5, 0.3])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        stats = CalibrationStats.from_arrays(p, y)
        assert stats.brier == pytest.approx(float(np.mean((p - y) ** 2)))

    def test_bin_assignment_covers_edges(self):
        # p == 1.0 must land in the last bin, not an out-of-range one.
        stats = CalibrationStats.from_arrays([0.0, 1.0], [0.0, 1.0])
        assert stats.bin_count[0] == 1
        assert stats.bin_count[CAL_BINS - 1] == 1

    def test_merge_is_associative_and_commutative(self):
        rng = np.random.default_rng(0)
        shards = [
            CalibrationStats.from_arrays(
                rng.random(n), (rng.random(n) < 0.5).astype(float)
            )
            for n in (5, 17, 3)
        ]
        a, b, c = shards
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        for other in (right, swapped):
            assert left.count == other.count
            assert left.sq_error == pytest.approx(other.sq_error)
            np.testing.assert_array_equal(left.bin_count, other.bin_count)
            np.testing.assert_allclose(left.bin_p_sum, other.bin_p_sum)
            np.testing.assert_allclose(left.bin_y_sum, other.bin_y_sum)

    @pytest.mark.parametrize("seed", range(4))
    def test_sharded_merge_equals_serial_aggregate(self, seed):
        """Property: any partition of the sample stream merges to the
        same aggregate as scoring it in one batch."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        p = rng.random(n)
        y = (rng.random(n) < p).astype(float)
        serial = CalibrationStats.from_arrays(p, y)
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 5))))
        merged = CalibrationStats()
        start = 0
        for cut in [*cuts.tolist(), n]:
            merged = merged.merge(
                CalibrationStats.from_arrays(p[start:cut], y[start:cut])
            )
            start = cut
        assert merged.count == serial.count
        assert merged.brier == pytest.approx(serial.brier)
        assert merged.expected_calibration_error() == pytest.approx(
            serial.expected_calibration_error()
        )
        np.testing.assert_array_equal(merged.bin_count, serial.bin_count)

    def test_reliability_rows_nan_on_empty_bins(self):
        stats = CalibrationStats.from_arrays([0.05], [1.0])
        rows = stats.reliability_rows()
        assert len(rows) == CAL_BINS
        assert rows[0]["count"] == 1
        assert math.isnan(rows[5]["mean_p"])  # empty bin reports NaN


class TestRealizedReuse:
    def test_labels_match_later_reappearance(self):
        labels = realized_reuse([1, 2, 1, 3, 2])
        np.testing.assert_array_equal(labels, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_empty_window(self):
        assert realized_reuse([]).size == 0


# ----------------------------------------------------------------------
# Shadow drift statistics
# ----------------------------------------------------------------------


class TestShadowStatistics:
    def test_top_ranked_ids_breaks_ties_deterministically(self):
        counts = {5: 10, 2: 10, 9: 4}
        assert top_ranked_ids(counts, k=2) == [2, 5]

    def test_rank_overlap(self):
        assert rank_overlap([1, 2, 3], [3, 4, 2]) == pytest.approx(2 / 3)
        assert math.isnan(rank_overlap([], [1]))

    def test_kendall_tau_identical_and_reversed(self):
        ids = list(range(8))
        assert kendall_tau(ids, ids) == pytest.approx(1.0)
        assert kendall_tau(ids, ids[::-1]) == pytest.approx(-1.0)

    def test_kendall_tau_nan_below_two_common(self):
        assert math.isnan(kendall_tau([1, 2], [3, 4]))
        assert math.isnan(kendall_tau([1, 2], [2, 3]))

    def test_noise_threshold_floors_at_epsilon(self):
        assert noise_threshold(0.05, 0.001, 0.001) == pytest.approx(0.05)

    def test_noise_threshold_scales_with_stderr(self):
        got = noise_threshold(0.002, 0.01, 0.01)
        assert got == pytest.approx(3.0 * math.sqrt(2 * 0.01**2))

    def test_noise_threshold_conservative_when_unknown(self):
        assert math.isinf(noise_threshold(0.01, 0.01, None))
        assert math.isinf(noise_threshold(0.01, float("inf"), 0.01))

    def test_detector_records_shadow_stats_counterfactually(self):
        """Shadow verdicts ride the learner sink without changing the
        detector's control flow."""

        def counts_for(alpha, seed):
            rng = np.random.default_rng(seed)
            ids = rng.zipf(1 + alpha, size=8000) % 500
            values, tallies = np.unique(ids, return_counts=True)
            return {int(v): int(c) for v, c in zip(values, tallies)}

        plain = DriftDetector(epsilon=0.05)
        observed = DriftDetector(epsilon=0.05)
        observed.obs = Observation.sidecars_only(learner=LearnerTelemetry())
        flags_plain, flags_observed = [], []
        for seed, alpha in enumerate([0.8, 0.8, 1.3]):
            window = counts_for(alpha, seed)
            flags_plain.append(plain.observe_window(dict(window)))
            flags_observed.append(observed.observe_window(dict(window)))
        assert flags_plain == flags_observed
        pending = observed.obs.learner._pending
        for key in (
            "alpha", "alpha_stderr", "shadow_drift", "noise_threshold",
            "topk_overlap", "kendall_tau",
        ):
            assert key in pending


# ----------------------------------------------------------------------
# The telemetry sink and series plumbing
# ----------------------------------------------------------------------


class TestLearnerTelemetry:
    def _one_window(self, hub, window=0, cause="first_window"):
        cal = CalibrationStats.from_arrays([0.2, 0.9], [0.0, 1.0])
        hub.record_drift(alpha=0.7, alpha_stderr=0.02, drifted=1.0)
        hub.record_threshold(
            threshold_adopted=1.0, incumbent_ratio=0.4, best_ratio=0.5
        )
        hub.record_refit(train_rows=64.0, trees=5.0, train_seconds=0.01)
        hub.record_window(
            window=window, delta=0.3, samples=2, admit_rate=0.5, mean_p=0.55,
            retrained=True, cause=cause, calibration=cal,
            score_hist=np.arange(CAL_BINS, dtype=float),
        )

    def test_row_assembly_merges_fragments_with_defaults(self):
        hub = LearnerTelemetry()
        self._one_window(hub)
        series = hub.series("lhr", 1 << 20)
        cols = series.columns
        assert series.windows == 1
        assert cols["alpha"][0] == pytest.approx(0.7)
        assert cols["threshold_adopted"][0] == 1.0
        assert cols["train_rows"][0] == 64.0
        # Unreported scalar columns default to NaN, flags to 0.
        assert math.isnan(cols["importance_entropy"][0])
        assert cols["degenerate"][0] == 0.0
        assert cols["cause"][0] == RETRAIN_CAUSES.index("first_window")

    def test_pending_fragments_do_not_leak_across_windows(self):
        hub = LearnerTelemetry()
        self._one_window(hub, window=0)
        cal = CalibrationStats()
        hub.record_window(
            window=1, delta=0.3, samples=0, admit_rate=0.0, mean_p=0.0,
            retrained=False, cause="none", calibration=cal,
            score_hist=np.zeros(CAL_BINS),
        )
        cols = hub.series().columns
        assert math.isnan(cols["alpha"][1])  # window 0's fragment is gone
        assert math.isnan(cols["brier"][1])  # no admissions: NaN, not 0

    def test_series_roundtrip_through_npz_columns(self, tmp_path):
        hub = LearnerTelemetry()
        self._one_window(hub)

        class FakeResult:
            learner = hub.series("lhr", 4096)

        columns = series_to_columns([FakeResult()])
        path = tmp_path / "learner.npz"
        np.savez(path, **columns)
        with np.load(path) as npz:
            loaded = {key: npz[key] for key in npz.files}
        rebuilt = columns_to_series(
            loaded, [{"policy": "lhr", "capacity": 4096}]
        )
        assert len(rebuilt) == 1
        index, series = rebuilt[0]
        assert index == 0
        assert series.policy == "lhr"
        assert series_equal(series, FakeResult.learner)

    def test_series_equal_ignores_timing_columns_only(self):
        hub = LearnerTelemetry()
        self._one_window(hub)
        a = hub.series()
        b = hub.series()
        b.columns["train_seconds"] = b.columns["train_seconds"] + 1.0
        assert series_equal(a, b)
        b.columns["alpha"] = b.columns["alpha"] + 1.0
        assert not series_equal(a, b)

    def test_null_learner_is_inert(self):
        NULL_LEARNER.record_drift(alpha=1.0)
        NULL_LEARNER.record_window(
            window=0, delta=0.1, samples=0, admit_rate=0.0, mean_p=0.0,
            retrained=False, cause="none", calibration=CalibrationStats(),
            score_hist=np.zeros(CAL_BINS),
        )
        assert not NULL_LEARNER.enabled
        assert NULL_LEARNER.series().windows == 0


# ----------------------------------------------------------------------
# End-to-end: replay, sweeps, ledger
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_lhr_records_expected_columns(self, learner_trace):
        capacity = max(int(0.2 * learner_trace.unique_bytes()), 1)
        policy = LhrCache(capacity)
        obs = Observation.sidecars_only(learner=LearnerTelemetry())
        result = simulate(policy, learner_trace, window_requests=200, obs=obs)
        series = result.learner
        assert series is not None
        assert series.windows == policy.windows_processed
        cols = series.columns
        assert cols["cause"][0] == RETRAIN_CAUSES.index("first_window")
        assert bool(cols["retrained"][0])
        assert np.isfinite(cols["alpha"]).all()
        assert np.isfinite(cols["alpha_stderr"]).all()
        # Histogram mass equals the window's scored samples.
        np.testing.assert_array_equal(
            cols["score_hist"].sum(axis=1), cols["samples"]
        )

    def test_serial_and_parallel_series_identical(self, learner_trace):
        capacity = max(int(0.2 * learner_trace.unique_bytes()), 1)
        serial, obs_serial = run_with_learner(learner_trace, capacity, jobs=0)
        parallel, obs_parallel = run_with_learner(
            learner_trace, capacity, jobs=2
        )
        assert serial[0].learner.windows > 0
        assert series_equal(serial[0].learner, parallel[0].learner)
        # The driver hubs absorbed the same grid.
        for (i, a), (j, b) in zip(
            obs_serial.learner.cells(), obs_parallel.learner.cells()
        ):
            assert i == j
            assert series_equal(a, b)

    def test_telemetry_does_not_change_accounting(self, learner_trace):
        capacity = max(int(0.2 * learner_trace.unique_bytes()), 1)
        plain = run_comparison(
            learner_trace, ["lhr", "lru"], [capacity], window_requests=200
        )
        observed, _ = run_with_learner(learner_trace, capacity, jobs=0)
        assert [r.counters() for r in plain] == [
            r.counters() for r in observed
        ]
        assert [r.window_series() for r in plain] == [
            r.window_series() for r in observed
        ]

    def test_ledger_roundtrip_and_manifest_count(self, learner_trace, tmp_path):
        capacity = max(int(0.2 * learner_trace.unique_bytes()), 1)
        results, _ = run_with_learner(learner_trace, capacity, jobs=0)
        record = record_from_results("compare", {"k": 1}, results)
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record(record)
        assert (ledger.root / run_id / RunLedger.LEARNER).is_file()

        loaded = ledger.load(run_id, learner=True)
        assert loaded.learner_window_count() == results[0].learner.windows
        cells = columns_to_series(loaded.learner, loaded.cells)
        assert len(cells) == 1  # the LRU cell recorded nothing
        index, series = cells[0]
        assert index == 0
        assert series.policy == "lhr"
        assert series_equal(series, results[0].learner)

        # Manifest-only load still reports the count (missing-npz path).
        manifest_only = ledger.load(run_id, learner=False)
        assert not manifest_only.learner
        assert (
            manifest_only.learner_window_count()
            == results[0].learner.windows
        )

    def test_report_shape_and_thrash_flag(self, learner_trace):
        capacity = max(int(0.2 * learner_trace.unique_bytes()), 1)
        results, obs = run_with_learner(learner_trace, capacity, jobs=0)
        report = analyze_learner("test-run", obs.learner.cells())
        payload = report.as_dict()
        assert payload["run"] == "test-run"
        (cell,) = payload["cells"]  # zero-window LRU cell dropped
        assert cell["policy"] == "lhr"
        assert set(cell) >= {
            "calibration", "alpha", "drift", "retrains", "delta",
        }
        assert cell["calibration"]["samples"] > 0
        assert len(cell["calibration"]["bins"]) == CAL_BINS
        assert cell["retrains"]["total"] >= 1
        text = report.render_text()
        assert "learner observatory" in text
        assert "calibration:" in text and "retrains:" in text

    def test_thrash_diagnosis_fires_on_noise_dominated_series(self):
        windows = 6
        columns = {
            "window": np.arange(windows, dtype=float),
            "drifted": np.ones(windows),
            "degenerate": np.zeros(windows),
            "shadow_drift": np.zeros(windows),
            "noise_threshold": np.full(windows, 0.05),
        }
        series = LearnerSeries(policy="lhr", capacity=1, columns=columns)
        assert series.noise_dominated_detections() == windows
        from repro.obs.learner import LearnerCellReport

        diag = LearnerCellReport(cell=0, series=series).thrash_diagnosis()
        assert diag is not None and "noise-dominated" in diag
