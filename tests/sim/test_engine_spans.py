"""Replay-engine span coverage: packed and object paths, zero effect on
accounting, and the LHR learner phases landing under their chunks."""

from __future__ import annotations

import pytest

from repro.obs import NULL_OBS, MemoryRecorder, MetricsRegistry, Observation, SpanRecorder
from repro.sim import build_policy, simulate
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace


@pytest.fixture(scope="module")
def span_trace():
    """Small enough to be fast, large enough to close several HRO
    windows at a 32 KB cache (window = 4x capacity in unique bytes)."""
    return irm_trace(4000, 300, alpha=0.9, mean_size=1 << 10, seed=7, name="sp")


CAPACITY = 32 << 10


def names(recorder):
    return {span.name for span in recorder.spans}


class TestPackedPathSpans:
    def test_sidecars_only_run_keeps_fast_path_and_results(self, span_trace):
        packed = PackedTrace.from_trace(span_trace)
        baseline = simulate(build_policy("lhr", CAPACITY), packed, obs=NULL_OBS)
        rec = SpanRecorder()
        traced = simulate(
            build_policy("lhr", CAPACITY),
            packed,
            obs=Observation.sidecars_only(spans=rec),
        )
        # Bit-identical accounting: the packed fast path stayed engaged.
        assert traced.counters() == baseline.counters()
        assert len(rec) > 0

    def test_packed_span_names_and_nesting(self, span_trace):
        rec = SpanRecorder()
        simulate(
            build_policy("lhr", CAPACITY),
            PackedTrace.from_trace(span_trace),
            obs=Observation.sidecars_only(spans=rec),
        )
        got = names(rec)
        assert {"sim.replay", "sim.chunk"} <= got
        # The LHR pipeline phases all appear once windows close.
        assert {"lhr.window_close", "lhr.drift_check", "lhr.gbm_refit"} <= got
        by_name = {}
        for span in rec.spans:
            by_name.setdefault(span.name, []).append(span)
        replay = by_name["sim.replay"][0]
        assert replay.parent_id is None
        assert replay.args.get("packed") is True
        assert replay.args.get("hits") is not None  # stamped at end
        for chunk in by_name["sim.chunk"]:
            assert chunk.parent_id == replay.span_id
        for close in by_name["lhr.window_close"]:
            parent = next(
                s for spans in by_name.values() for s in spans
                if s.span_id == close.parent_id
            )
            assert parent.name == "sim.chunk"
        for refit in by_name["lhr.gbm_refit"]:
            assert refit.args.get("rows", 0) > 0

    def test_warmup_span_recorded(self, span_trace):
        rec = SpanRecorder()
        simulate(
            build_policy("lru", CAPACITY),
            PackedTrace.from_trace(span_trace),
            warmup_requests=500,
            obs=Observation.sidecars_only(spans=rec),
        )
        warmups = [s for s in rec.spans if s.name == "sim.warmup"]
        assert len(warmups) == 1
        assert warmups[0].duration > 0


class TestObjectPathSpans:
    def test_observed_run_adds_window_spans(self, span_trace):
        rec = SpanRecorder()
        obs = Observation(
            recorder=MemoryRecorder(), registry=MetricsRegistry(), spans=rec
        )
        result = simulate(
            build_policy("lru", CAPACITY),
            span_trace,
            window_requests=1000,
            obs=obs,
        )
        windows = [s for s in rec.spans if s.name == "sim.window"]
        assert len(windows) == len(result.windows)
        indices = sorted(s.args["index"] for s in windows)
        assert indices == list(range(len(result.windows)))

    def test_observed_results_match_unobserved(self, span_trace):
        baseline = simulate(build_policy("lru", CAPACITY), span_trace)
        rec = SpanRecorder()
        obs = Observation(
            recorder=MemoryRecorder(), registry=MetricsRegistry(), spans=rec
        )
        traced = simulate(build_policy("lru", CAPACITY), span_trace, obs=obs)
        assert traced.counters() == baseline.counters()


class TestDisabledSpans:
    def test_null_obs_records_nothing(self, span_trace):
        result = simulate(
            build_policy("lru", CAPACITY),
            PackedTrace.from_trace(span_trace),
            obs=NULL_OBS,
        )
        assert result.requests == len(span_trace)
        assert len(NULL_OBS.spans) == 0
