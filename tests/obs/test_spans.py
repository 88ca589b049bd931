"""Tests for the span recorder and the Chrome trace-event export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import NULL_SPANS, Observation, SpanRecorder
from repro.obs.spans import Span, chrome_trace


class FakeClock:
    """Deterministic monotonic clock: every read advances by ``step``."""

    def __init__(self, start: float = 100.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpanRecorder:
    def test_begin_end_records_duration(self):
        rec = SpanRecorder(clock=FakeClock(step=1.0))
        span = rec.begin("work", cat="sim")
        rec.end(span)
        assert len(rec) == 1
        done = rec.spans[0]
        assert done.name == "work"
        assert done.cat == "sim"
        assert done.duration == pytest.approx(1.0)
        assert done.parent_id is None

    def test_nesting_sets_parent(self):
        rec = SpanRecorder(clock=FakeClock())
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
        by_name = {span.name: span for span in rec.spans}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].parent_id is None
        # Completion order: inner ends first.
        assert [span.name for span in rec.spans] == ["inner", "outer"]

    def test_context_manager_and_end_args_merge(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("job", cat="cell", cell=3):
            pass
        span = rec.begin("replay", requests=10)
        rec.end(span, hits=4)
        job, replay = rec.spans
        assert job.args == {"cell": 3}
        assert replay.args == {"requests": 10, "hits": 4}

    def test_out_of_order_end_keeps_stack_sane(self):
        rec = SpanRecorder(clock=FakeClock())
        a = rec.begin("a")
        b = rec.begin("b")
        rec.end(a)  # ended before its child — must not corrupt the stack
        c = rec.begin("c")
        rec.end(c)
        rec.end(b)
        by_name = {span.name: span for span in rec.spans}
        assert by_name["c"].parent_id == b.span_id

    def test_threads_get_separate_stacks(self):
        rec = SpanRecorder(clock=FakeClock())
        main = rec.begin("main-root")
        seen = {}

        def worker():
            span = rec.begin("thread-root")
            rec.end(span)
            seen["parent"] = span.parent_id

        thread = threading.Thread(target=worker, name="spanner")
        thread.start()
        thread.join()
        rec.end(main)
        # The other thread's root is NOT parented onto this thread's span.
        assert seen["parent"] is None
        assert "spanner" in rec.thread_names.values()

    def test_dict_round_trip(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner", cat="lhr", rows=5):
                pass
        dicts = rec.as_dicts()
        back = [Span.from_dict(d) for d in dicts]
        assert [s.name for s in back] == ["inner", "outer"]
        assert back[0].args == {"rows": 5}
        assert back[0].parent_id == back[1].span_id
        assert all(s.pid == rec.pid for s in back)

    def test_unfinished_spans_not_exported(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.begin("never-ends")
        assert rec.as_dicts() == []
        assert len(rec) == 0


class TestAbsorb:
    def test_absorb_reassigns_ids_and_reparents(self):
        driver = SpanRecorder(clock=FakeClock())
        gather = driver.begin("gather")
        worker = SpanRecorder(clock=FakeClock())
        with worker.span("cell"):
            with worker.span("replay"):
                pass
        # Simulate a same-pid batch colliding with driver ids.
        batch = worker.as_dicts()
        driver.absorb(batch, parent=gather)
        driver.end(gather)
        by_name = {span.name: span for span in driver.spans}
        assert by_name["replay"].parent_id == by_name["cell"].span_id
        assert by_name["cell"].parent_id == gather.span_id
        ids = [span.span_id for span in driver.spans]
        assert len(ids) == len(set(ids))  # no collisions after re-id

    def test_absorb_cross_pid_parent_marker(self):
        driver = SpanRecorder(clock=FakeClock())
        root = driver.begin("sweep.run")
        worker = SpanRecorder(clock=FakeClock())
        with worker.span("cell"):
            pass
        batch = worker.as_dicts()
        for entry in batch:
            entry["pid"] = driver.pid + 1  # forked worker pid
        driver.absorb(batch, parent=root)
        driver.end(root)
        cell = next(s for s in driver.spans if s.name == "cell")
        assert cell.parent_id == root.span_id
        assert cell.parent_pid == driver.pid
        assert cell.pid == driver.pid + 1

    def test_absorb_without_parent_keeps_roots(self):
        driver = SpanRecorder(clock=FakeClock())
        worker = SpanRecorder(clock=FakeClock())
        with worker.span("cell"):
            pass
        driver.absorb(worker.as_dicts())
        assert driver.spans[0].parent_id is None


class TestNullSpans:
    def test_noop_and_shared_context(self):
        span = NULL_SPANS.begin("anything", cat="x", k=1)
        NULL_SPANS.end(span, extra=2)
        with NULL_SPANS.span("ctx"):
            pass
        assert not NULL_SPANS.enabled
        assert len(NULL_SPANS) == 0
        assert NULL_SPANS.as_dicts() == []

    def test_observation_defaults_to_null_spans(self):
        assert Observation().spans is NULL_SPANS

    def test_sidecars_only_observation_stays_disabled(self):
        rec = SpanRecorder()
        obs = Observation.sidecars_only(spans=rec)
        assert obs.spans is rec
        assert not obs.enabled  # no events or metrics flow


class TestChromeTrace:
    def _recorder(self):
        rec = SpanRecorder(clock=FakeClock(step=0.5))
        with rec.span("root", cat="cli"):
            with rec.span("child", cat="sim", chunk=1):
                pass
        return rec

    def test_every_event_has_required_keys(self):
        payload = self._recorder().chrome_trace()
        assert payload["traceEvents"]
        for event in payload["traceEvents"]:
            for key in ("ph", "ts", "pid", "name"):
                assert key in event, event

    def test_complete_events_are_relative_microseconds(self):
        payload = self._recorder().chrome_trace()
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        child = next(e for e in spans if e["name"] == "child")
        root = next(e for e in spans if e["name"] == "root")
        assert root["ts"] == 0.0  # earliest span anchors the timeline
        assert child["ts"] > 0
        assert child["dur"] > 0
        assert child["args"] == {"chunk": 1}
        assert child["cat"] == "sim"

    def test_process_metadata_lanes(self):
        driver = SpanRecorder(clock=FakeClock())
        root = driver.begin("sweep.run")
        worker = SpanRecorder(clock=FakeClock(start=100.5))
        with worker.span("cell"):
            pass
        batch = worker.as_dicts()
        for entry in batch:
            entry["pid"] = driver.pid + 7
        driver.absorb(batch, parent=root)
        driver.end(root)
        payload = chrome_trace(driver.as_dicts(), driver_pid=driver.pid)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert names[driver.pid] == "driver"
        assert names[driver.pid + 7] == f"worker {driver.pid + 7}"

    def test_write_chrome_trace(self, tmp_path):
        rec = self._recorder()
        out = tmp_path / "trace.json"
        rec.write_chrome_trace(out)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_empty_trace_is_valid(self):
        payload = chrome_trace([])
        assert payload["traceEvents"] == []
