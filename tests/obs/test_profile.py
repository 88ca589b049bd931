"""Tests for the sampling profiler and the span phase table."""

from __future__ import annotations

import time

import pytest

from repro.core.model_backends import BatchedBackend
from repro.obs.profile import SamplingProfiler, profile_simulation


def _spin(seconds: float) -> int:
    """Busy loop with a recognizable frame name for the sampler to catch."""
    deadline = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < deadline:
        count += 1
    return count


class TestSamplingProfiler:
    def test_samples_busy_code(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        with profiler:
            _spin(0.15)
        assert profiler.sample_count > 10
        leaves = dict(profiler.hottest(20))
        assert any("_spin" in frame for frame in leaves)

    def test_collapsed_format(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        with profiler:
            _spin(0.1)
        text = profiler.collapsed()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in stack or stack  # root-only stacks are legal
        # Heaviest stack first.
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts, reverse=True)

    def test_write_collapsed(self, tmp_path):
        profiler = SamplingProfiler(interval_seconds=0.001)
        with profiler:
            _spin(0.05)
        out = profiler.write_collapsed(tmp_path / "stacks.folded")
        assert out.read_text() == profiler.collapsed()

    def test_start_twice_raises(self):
        profiler = SamplingProfiler()
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_seconds=0.0)

    def test_stop_without_start_is_noop(self):
        SamplingProfiler().stop()  # must not raise


class TestThreadAwareStacks:
    """Satellite: collapsed stacks carry the thread name as the root
    frame, and ``all_threads=True`` samples named helper threads."""

    def test_target_thread_stacks_prefixed_with_thread_name(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        with profiler:
            _spin(0.1)
        text = profiler.collapsed()
        assert text
        for line in text.splitlines():
            stack, _ = line.rsplit(" ", 1)
            assert stack.startswith("MainThread")

    def test_all_threads_samples_named_busy_thread(self):
        import threading

        stop = threading.Event()

        def busy():
            while not stop.is_set():
                pass

        worker = threading.Thread(target=busy, name="busy-worker")
        worker.start()
        try:
            profiler = SamplingProfiler(
                interval_seconds=0.001, all_threads=True
            )
            with profiler:
                _spin(0.15)
        finally:
            stop.set()
            worker.join()
        text = profiler.collapsed()
        roots = {line.split(";", 1)[0].split(" ")[0] for line in text.splitlines()}
        assert "MainThread" in roots
        assert "busy-worker" in roots
        busy_lines = [
            line for line in text.splitlines()
            if line.startswith("busy-worker")
        ]
        assert any("busy" in line for line in busy_lines)

    def test_default_mode_ignores_other_threads(self):
        import threading

        stop = threading.Event()

        def busy():
            while not stop.is_set():
                pass

        worker = threading.Thread(target=busy, name="background-spinner")
        worker.start()
        try:
            profiler = SamplingProfiler(interval_seconds=0.001)
            with profiler:
                _spin(0.1)
        finally:
            stop.set()
            worker.join()
        assert "background-spinner" not in profiler.collapsed()


class TestProfileSimulation:
    def test_report_on_small_replay(self, equal_size_trace, tmp_path):
        report = profile_simulation(
            equal_size_trace, "lru", 64, interval_seconds=0.001
        )
        assert report.policy == "lru"
        assert report.trace == equal_size_trace.name
        assert report.requests == len(equal_size_trace)
        assert 0.0 <= report.hit_ratio <= 1.0
        assert report.wall_seconds > 0
        assert report.rss_bytes > 0
        # The replay always records its sim.replay span.
        (replay,) = [p for p in report.phases if p.name == "sim.replay"]
        assert replay.cat == "sim" and replay.count == 1
        text = report.render_text()
        assert "sim.replay" in text
        assert "profile: lru" in text
        payload = report.as_dict()
        assert payload["samples"] == report.sample_count
        assert payload["phases"]
        for row in payload["phases"]:
            assert set(row) == {
                "cat", "name", "count", "total_seconds", "self_seconds",
                "self_share",
            }
        out = report.write_collapsed(tmp_path / "replay.folded")
        assert out.exists()

    def test_lhr_phases_attributed(
        self, production_trace, production_capacity, monkeypatch
    ):
        """The profile replays LHR's span kernel, which scores blocks and
        never calls the per-request scorer, and its phase table names
        the window-close pipeline's spans."""
        calls = {"score_one": 0, "score_block": 0}
        for method in calls:
            original = getattr(BatchedBackend, method)

            def counted(self, *args, _original=original, _method=method):
                calls[_method] += 1
                return _original(self, *args)

            monkeypatch.setattr(BatchedBackend, method, counted)
        report = profile_simulation(
            production_trace,
            "lhr",
            production_capacity,
            interval_seconds=0.002,
            policy_kwargs={"seed": 0},
        )
        names = {phase.name for phase in report.phases}
        assert {
            "sim.replay", "sim.chunk", "hro.rank", "lhr.window_close",
            "lhr.gbm_refit",
        } <= names
        assert calls["score_one"] == 0
        assert calls["score_block"] > 0

    def test_warmup_rate_counts_every_replayed_request(self, equal_size_trace):
        warmup = len(equal_size_trace) // 2
        report = profile_simulation(
            equal_size_trace, "lru", 64, warmup_requests=warmup,
            interval_seconds=0.001,
        )
        assert report.requests == len(equal_size_trace) - warmup
        rate = len(equal_size_trace) / report.wall_seconds
        assert f"{rate:,.0f} req/s" in report.render_text()

    def test_write_collapsed_without_profiler_raises(self):
        from repro.obs.profile import ProfileReport

        report = ProfileReport(
            policy="lru", trace="t", capacity=1, wall_seconds=1.0,
            rss_bytes=1, requests=1, hit_ratio=0.0,
        )
        with pytest.raises(ValueError):
            report.write_collapsed("/tmp/never.folded")
