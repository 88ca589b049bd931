"""Caffeine emulation (Appendix A.3): W-TinyLFU baseline vs LHR."""

import pytest

from repro.proto import run_prototype
from repro.proto.caffeine import (
    CaffeineServer,
    make_caffeine_baseline,
    make_caffeine_lhr,
)
from repro.policies.classic import LruCache
from repro.policies.tinylfu import WTinyLfuCache
from repro.core.lhr import LhrCache
from repro.traces.request import Request


class TestFactories:
    def test_baseline_uses_wtinylfu(self):
        server = make_caffeine_baseline(10_000)
        assert isinstance(server.policy, WTinyLfuCache)
        assert server.uses_learning is False

    def test_lhr_variant(self):
        server = make_caffeine_lhr(10_000, lhr_kwargs={"num_irts": 10})
        assert isinstance(server.policy, LhrCache)
        assert server.policy.num_irts == 10
        assert server.uses_learning is True


class TestServe:
    def test_miss_then_hit(self):
        server = CaffeineServer(LruCache(10_000), uses_learning=False)
        miss = server.serve(Request(0.0, 1, 100))
        hit = server.serve(Request(1.0, 1, 100))
        assert (miss.hit, miss.wan_bytes) == (False, 100)
        assert (hit.hit, hit.wan_bytes) == (True, 0)
        assert hit.latency_seconds < miss.latency_seconds
        # No flash device; the admission filter is charged on every request.
        assert miss.device_seconds == hit.device_seconds == 0.0
        assert miss.cpu_seconds == hit.cpu_seconds
        assert server.origin.stats.fetches == 1


class TestRunCaffeine:
    @pytest.fixture(scope="class")
    def report_pair(self, production_trace, production_capacity):
        baseline = run_prototype(
            make_caffeine_baseline(production_capacity),
            production_trace,
            "caffeine",
            window_requests=500,
        )
        lhr = run_prototype(
            make_caffeine_lhr(production_capacity, lhr_kwargs={"seed": 0}),
            production_trace,
            "lhr",
            window_requests=500,
        )
        return baseline, lhr

    def test_lhr_beats_caffeine_hit_probability(self, report_pair):
        baseline, lhr = report_pair
        assert lhr.content_hit_percent > baseline.content_hit_percent

    def test_traffic_accounting(self, report_pair, production_trace):
        baseline, _ = report_pair
        assert baseline.traffic_gbps > 0
        # All traffic must be bounded by total requested bytes / duration.
        ceiling = production_trace.total_bytes() * 8 / production_trace.duration / 1e9
        assert baseline.traffic_gbps <= ceiling

    def test_latency_percentile_ordering(self, report_pair):
        baseline, lhr = report_pair
        for report in (baseline, lhr):
            assert report.mean_latency_ms <= report.p99_latency_ms
            assert report.p90_latency_ms <= report.p99_latency_ms

    def test_memory_includes_java_heap_baseline(self, report_pair):
        baseline, _ = report_pair
        assert baseline.peak_mem_gb >= 3.0  # base process bytes

    def test_window_series_present(self, report_pair):
        baseline, _ = report_pair
        assert len(baseline.window_hit_ratios) >= 5
