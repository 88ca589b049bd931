"""Event recorders, the observation handle, and end-to-end emission
through ``simulate`` (the LHR lifecycle events the paper's diagnostics
hang off)."""

import io
import json

import pytest

from repro.core.lhr import LhrCache
from repro.obs import (
    EVENT_TYPES,
    NULL_OBS,
    FanoutRecorder,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Observation,
    TextRecorder,
    register_event_type,
)
from repro.policies import make_policy
from repro.sim import simulate
from repro.traces.synthetic import irm_trace


class TestRecorders:
    def test_null_recorder_is_disabled_noop(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.emit("sim.window", index=0)  # no-op, no error
        recorder.close()

    def test_memory_recorder_sequences_events(self):
        recorder = MemoryRecorder()
        recorder.emit("sim.window", index=0, hits=3)
        recorder.emit("lhr.retrain", window=1)
        assert [e["seq"] for e in recorder.events] == [0, 1]
        assert recorder.by_type("lhr.retrain") == [
            {"event": "lhr.retrain", "seq": 1, "window": 1}
        ]

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            MemoryRecorder().emit("bogus.event")

    def test_register_event_type(self):
        name = register_event_type("test.custom")
        try:
            recorder = MemoryRecorder()
            recorder.emit(name, x=1)
            assert recorder.events[0]["event"] == "test.custom"
        finally:
            EVENT_TYPES.discard(name)

    def test_register_event_type_requires_namespace(self):
        with pytest.raises(ValueError, match="subsystem.event"):
            register_event_type("plainname")

    def test_jsonl_recorder_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.emit("sim.window", index=0, hit_ratio=0.25)
            recorder.emit("sim.window", index=1, hit_ratio=0.5)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[1] == {
            "event": "sim.window", "seq": 1, "index": 1, "hit_ratio": 0.5
        }

    def test_jsonl_recorder_serializes_numpy_scalars(self, tmp_path):
        import numpy as np

        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.emit(
                "sim.window",
                index=np.int64(3),
                hit_ratio=np.float32(0.25),
            )
        record = json.loads(path.read_text())
        assert record["index"] == 3
        assert record["hit_ratio"] == pytest.approx(0.25)

    def test_jsonl_recorder_falls_back_to_repr(self, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.emit("sim.window", index=0, payload=Opaque())
        assert json.loads(path.read_text())["payload"] == "<opaque thing>"

    def test_jsonl_recorder_raises_after_close(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "e.jsonl")
        recorder.close()
        recorder.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            recorder.emit("sim.window")

    def test_text_recorder_formats_one_line_per_event(self):
        stream = io.StringIO()
        TextRecorder(stream).emit("sim.window", index=3, hit_ratio=0.123456789)
        assert stream.getvalue() == "[sim.window] index=3 hit_ratio=0.123457\n"

    def test_fanout_broadcasts(self, tmp_path):
        memory = MemoryRecorder()
        jsonl = JsonlRecorder(tmp_path / "e.jsonl")
        fanout = FanoutRecorder(memory, jsonl, None)
        fanout.emit("sim.window", index=0)
        fanout.close()
        assert len(memory.events) == 1
        assert json.loads((tmp_path / "e.jsonl").read_text())["index"] == 0


class TestObservation:
    def test_null_obs_is_shared_and_inert(self):
        assert NULL_OBS.enabled is False
        NULL_OBS.emit("sim.window", index=0)
        NULL_OBS.close()

    def test_default_recorder_is_null(self):
        obs = Observation()
        assert obs.enabled is True
        obs.emit("sim.window", index=0)  # swallowed by the NullRecorder


@pytest.fixture(scope="module")
def event_trace():
    return irm_trace(2000, 120, alpha=0.8, mean_size=1 << 10, seed=11)


class TestSimulateEmission:
    """End-to-end: replaying a trace under an enabled observation emits
    the catalog events and fills the profiling histograms."""

    def test_lru_emits_windows_and_replay_metrics(self, event_trace):
        obs = Observation(recorder=MemoryRecorder())
        capacity = int(0.1 * event_trace.unique_bytes())
        result = simulate(
            make_policy("lru", capacity), event_trace,
            window_requests=500, obs=obs,
        )
        windows = obs.recorder.by_type("sim.window")
        assert len(windows) == len(result.windows) == 4
        assert [w["index"] for w in windows] == [0, 1, 2, 3]
        for window, event in zip(result.windows, windows):
            assert event["requests"] == window.requests
            assert event["hits"] == window.hits
            assert event["hit_ratio"] == pytest.approx(
                window.hit_ratio, abs=1e-6
            )
        reg = obs.registry
        assert reg.counter("sim_requests_total").value == len(event_trace)
        assert reg.counter("sim_hits_total").value == result.hits
        assert reg.histogram("sim_replay_seconds").count == 1

    def test_lhr_emits_lifecycle_events(self, event_trace):
        obs = Observation(recorder=MemoryRecorder())
        capacity = int(0.1 * event_trace.unique_bytes())
        simulate(LhrCache(capacity, seed=0), event_trace, obs=obs)
        types = {e["event"] for e in obs.recorder.events}
        assert "lhr.retrain" in types
        assert "lhr.drift" in types
        retrain = obs.recorder.by_type("lhr.retrain")[0]
        assert retrain["rows"] > 0 and retrain["trees"] > 0
        reg = obs.registry
        assert reg.counter("lhr_trainings_total").value == len(
            obs.recorder.by_type("lhr.retrain")
        )
        assert reg.histogram("lhr_train_seconds").count > 0

    def test_observed_run_matches_unobserved(self, event_trace):
        """Observation must never perturb the simulation itself."""
        capacity = int(0.1 * event_trace.unique_bytes())
        plain = simulate(
            LhrCache(capacity, seed=0), event_trace, window_requests=500
        )
        observed = simulate(
            LhrCache(capacity, seed=0), event_trace, window_requests=500,
            obs=Observation(recorder=MemoryRecorder()),
        )
        assert plain.counters() == observed.counters()
        assert plain.object_hit_ratio == observed.object_hit_ratio
        assert plain.window_series() == observed.window_series()


class TestRecorderContextManagers:
    def test_jsonl_recorder_closes_on_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlRecorder(path) as recorder:
                recorder.emit("sim.window", index=0)
                raise RuntimeError("boom")
        # The event written before the crash survived the close.
        assert json.loads(path.read_text())["index"] == 0
        with pytest.raises(RuntimeError, match="closed"):
            recorder.emit("sim.window", index=1)

    def test_jsonl_flush_makes_events_visible(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(path)
        recorder.emit("sim.window", index=0)
        recorder.flush()
        assert path.read_text().strip()
        recorder.close()

    def test_text_recorder_context_flushes_but_keeps_stream_open(self):
        stream = io.StringIO()
        with TextRecorder(stream) as recorder:
            recorder.emit("sim.window", index=0)
        assert not stream.closed  # borrowed stream (stderr) is never closed
        assert "[sim.window]" in stream.getvalue()

    def test_null_recorder_context_manager(self):
        with NullRecorder() as recorder:
            recorder.emit("sim.window", index=0)
            recorder.flush()

    def test_observation_context_closes_recorder(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Observation(recorder=JsonlRecorder(path)) as obs:
            obs.emit("sim.window", index=0)
        with pytest.raises(RuntimeError, match="closed"):
            obs.emit("sim.window", index=1)


class _ExplodingRecorder(NullRecorder):
    """Raises from every operation; records how often it was called."""

    enabled = True

    def __init__(self, tag="boom"):
        self.tag = tag
        self.calls = 0

    def emit(self, event, **fields):
        self.calls += 1
        raise RuntimeError(self.tag)

    def flush(self):
        self.calls += 1
        raise RuntimeError(self.tag)

    def close(self):
        self.calls += 1
        raise RuntimeError(self.tag)


class TestFanoutErrorPropagation:
    def test_emit_delivers_to_all_then_reraises_first(self):
        first = _ExplodingRecorder("first")
        survivor = MemoryRecorder()
        fanout = FanoutRecorder(first, survivor)
        with pytest.raises(RuntimeError, match="first"):
            fanout.emit("sim.window", index=0)
        # The healthy sink still received the event.
        assert [e["event"] for e in survivor.events] == ["sim.window"]

    def test_first_error_wins_across_multiple_failures(self):
        a = _ExplodingRecorder("alpha")
        b = _ExplodingRecorder("beta")
        with pytest.raises(RuntimeError, match="alpha"):
            FanoutRecorder(a, b).emit("sim.window", index=0)
        assert a.calls == 1 and b.calls == 1

    def test_close_reaches_every_recorder_despite_errors(self, tmp_path):
        exploding = _ExplodingRecorder()
        jsonl = JsonlRecorder(tmp_path / "log.jsonl")
        fanout = FanoutRecorder(exploding, jsonl)
        with pytest.raises(RuntimeError):
            fanout.close()
        # The JSONL file was closed even though its sibling exploded.
        with pytest.raises(RuntimeError, match="closed"):
            jsonl.emit("sim.window", index=0)

    def test_flush_propagates_and_broadcasts(self):
        exploding = _ExplodingRecorder()
        survivor = MemoryRecorder()
        with pytest.raises(RuntimeError):
            FanoutRecorder(exploding, survivor).flush()
        assert exploding.calls == 1


class TestJsonlDurability:
    """Satellite: flush/close durability and torn-write recovery."""

    def test_close_flushes_buffered_events(self, tmp_path):
        from repro.obs import read_events_jsonl

        path = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(path)
        recorder.emit("sim.window", policy="lru")
        recorder.close()
        events = read_events_jsonl(path)
        assert events == [{"event": "sim.window", "seq": 0, "policy": "lru"}]

    def test_flush_makes_events_visible_before_close(self, tmp_path):
        from repro.obs import read_events_jsonl

        path = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(path)
        recorder.emit("sim.window", policy="lru")
        recorder.flush()
        # Readable by a concurrent process while the recorder stays open.
        assert len(read_events_jsonl(path)) == 1
        recorder.close()

    def test_fsync_flag_fsyncs_on_flush(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.obs.events.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[-1],
        )
        recorder = JsonlRecorder(tmp_path / "events.jsonl", fsync=True)
        recorder.emit("sim.window", policy="lru")
        recorder.close()
        assert synced  # close -> flush -> fsync

    def test_emit_after_close_raises(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "events.jsonl")
        recorder.close()
        with pytest.raises(RuntimeError, match="closed"):
            recorder.emit("sim.window")

    def test_kill_mid_write_leaves_replayable_log(self, tmp_path):
        """Regression: a process killed mid-write must not corrupt the
        flushed prefix, and the tolerant reader must recover it."""
        import subprocess
        import sys

        path = tmp_path / "events.jsonl"
        script = f"""
import os, sys
sys.path.insert(0, {str((tmp_path / '..').resolve())!r})
from repro.obs import JsonlRecorder

recorder = JsonlRecorder({str(path)!r})
for i in range(50):
    recorder.emit("sim.window", index=i)
recorder.flush()
# Simulate a torn write: raw partial line after the flushed prefix,
# then die without close() as SIGKILL would.
recorder._file.write('{{"event": "sim.window", "index": 50, "trunc')
recorder._file.flush()
os._exit(9)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert proc.returncode == 9, proc.stderr
        from repro.obs import read_events_jsonl

        with pytest.raises(ValueError, match="not valid JSON"):
            read_events_jsonl(path)  # strict: corruption is loud
        events = read_events_jsonl(path, strict=False)
        assert [e["index"] for e in events] == list(range(50))

    def test_strict_false_only_forgives_the_last_line(self, tmp_path):
        from repro.obs import read_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\n{broken\n{"event": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_events_jsonl(path, strict=False)
