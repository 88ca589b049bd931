"""Columnar fast-path equivalence: span kernels vs ``request``.

The contract under test (the heart of the array-native replay engine):
for every registered policy, replaying a ``PackedTrace`` through
``replay_span`` produces the *bit-identical* hit/miss stream, counter
set, window series and metadata peaks as replaying the reference
``Trace`` through ``request`` — and a decision tracer transparently
pins the base walker, which calls ``request`` per request, over the
inlined classic kernels, while an observation leaves every kernel
engaged.  LHR's kernel walks ``request`` itself, so nothing pins it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.lhr import LhrCache
from repro.core.model_backends import BatchedBackend
from repro.obs import NULL_OBS, MemoryRecorder, MetricsRegistry, Observation
from repro.obs.trace import TraceConfig
from repro.policies.base import CachePolicy
from repro.policies.classic import LruCache
from repro.policies.tinylfu import WTinyLfuCache
from repro.sim import known_policies, run_comparison, simulate
from repro.sim.metrics import SimulationResult, WindowMetrics
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace

GOLDEN_PATH = Path(__file__).parent / "golden_hit_ratios.json"

#: Constructor overrides matching the golden fixture (fast policies for
#: the slow learners' internals).
POLICY_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


@pytest.fixture(scope="module")
def fixture_trace():
    return irm_trace(
        1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=7,
        name="golden",
    )


@pytest.fixture(scope="module")
def fixture_capacity(fixture_trace):
    return max(int(0.15 * fixture_trace.unique_bytes()), 1)


def _build(name, capacity):
    return build_policy(name, capacity, **POLICY_KWARGS.get(name, {}))


@pytest.fixture
def lhr_spans(monkeypatch):
    """The ``(begin, end)`` of every ``LhrCache.replay_span`` call."""
    spans = []
    replay_span = LhrCache.replay_span

    def spy(self, obj_ids, sizes, times, begin, end):
        spans.append((begin, end))
        replay_span(self, obj_ids, sizes, times, begin, end)

    monkeypatch.setattr(LhrCache, "replay_span", spy)
    return spans


def _oracle(
    policy, trace, window_requests=0, warmup_requests=0,
    metadata_probe_interval=1000, obs=NULL_OBS, tracer=None,
):
    """Per-request reference replay: ``policy.request`` once per request
    with the engine's window, warmup and metadata-probe accounting.  With
    an enabled ``obs`` it emits ``sim.window`` at each window rollover
    and for the last window, as the engine's replay loop does."""
    if obs.enabled:
        policy.attach_observation(obs)
    if tracer is not None:
        policy.attach_tracer(tracer)
    result = SimulationResult(
        policy=policy.name, trace=trace.name, capacity=policy.capacity
    )

    def emit(window):
        obs.emit(
            "sim.window", index=window.index, requests=window.requests,
            hits=window.hits, hit_bytes=window.hit_bytes,
            total_bytes=window.total_bytes,
            hit_ratio=round(window.hit_ratio, 6),
            evictions=window.evictions,
        )

    window = None
    evict_mark = 0
    peak_metadata = 0
    for i, req in enumerate(trace):
        if window_requests and i % window_requests == 0:
            if window is not None:
                window.evictions = policy.evictions - evict_mark
                if obs.enabled:
                    emit(window)
            evict_mark = policy.evictions
            window = WindowMetrics(index=len(result.windows))
            result.windows.append(window)
        hit = policy.request(req)
        if i >= warmup_requests:
            result.requests += 1
            result.total_bytes += req.size
            if hit:
                result.hits += 1
                result.hit_bytes += req.size
        if window is not None:
            window.requests += 1
            window.total_bytes += req.size
            if hit:
                window.hits += 1
                window.hit_bytes += req.size
        if metadata_probe_interval and i % metadata_probe_interval == 0:
            peak_metadata = max(peak_metadata, policy.metadata_bytes())
    result.peak_metadata_bytes = max(peak_metadata, policy.metadata_bytes())
    result.evictions = policy.evictions
    result.admissions = policy.admissions
    result.decision_trace = tracer
    if window is not None:
        window.evictions = policy.evictions - evict_mark
        if obs.enabled:
            emit(window)
    return result


@pytest.mark.parametrize("name", known_policies())
def test_hit_stream_bit_identical(name, fixture_trace, fixture_capacity):
    """Per-request verdicts — not just totals — must agree exactly."""
    reference = _build(name, fixture_capacity)
    fast = _build(name, fixture_capacity)
    packed = PackedTrace.from_trace(fixture_trace)
    obj_ids, sizes, times = packed.obj_ids, packed.sizes, packed.times
    for index, req in enumerate(fixture_trace):
        hit_ref = reference.request(req)
        hits_before = fast.hits
        fast.replay_span(obj_ids, sizes, times, index, index + 1)
        hit_fast = fast.hits > hits_before
        assert hit_ref == hit_fast, f"{name}: verdicts diverge at request {index}"
    assert reference.hits == fast.hits
    assert reference.misses == fast.misses
    assert reference.hit_bytes == fast.hit_bytes
    assert reference.miss_bytes == fast.miss_bytes
    assert reference.evictions == fast.evictions
    assert reference.admissions == fast.admissions
    assert reference.used_bytes == fast.used_bytes
    assert reference.cached_objects() == fast.cached_objects()
    assert reference.metadata_bytes() == fast.metadata_bytes()


@pytest.mark.parametrize("name", known_policies())
def test_engine_results_bit_identical(name, fixture_trace, fixture_capacity):
    """Full engine runs (windows, warmup, metadata probes) must agree."""
    packed = PackedTrace.from_trace(fixture_trace)
    ref = _oracle(
        _build(name, fixture_capacity), fixture_trace,
        window_requests=300, warmup_requests=100, metadata_probe_interval=250,
    )
    fast = simulate(
        _build(name, fixture_capacity), packed,
        window_requests=300, warmup_requests=100, metadata_probe_interval=250,
    )
    assert ref.counters() == fast.counters()
    assert ref.peak_metadata_bytes == fast.peak_metadata_bytes
    assert [
        (w.requests, w.hits, w.hit_bytes, w.total_bytes) for w in ref.windows
    ] == [(w.requests, w.hits, w.hit_bytes, w.total_bytes) for w in fast.windows]


def test_fast_path_matches_golden_fixture():
    """The packed replay reproduces the pinned golden hit ratios exactly."""
    if not GOLDEN_PATH.exists():
        pytest.skip("golden fixture not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    params = golden["trace"]
    trace = irm_trace(
        params["num_requests"], params["num_contents"], alpha=params["alpha"],
        mean_size=params["mean_size"], size_sigma=params["size_sigma"],
        seed=params["seed"], name=params["name"],
    )
    names = known_policies()
    results = run_comparison(
        PackedTrace.from_trace(trace),
        names,
        [golden["capacity"]],
        policy_kwargs=golden["policy_kwargs"],
    )
    for name, result in zip(names, results):
        pinned = golden["policies"][name]
        for key in (
            "requests", "hits", "hit_bytes", "total_bytes", "evictions",
            "admissions",
        ):
            assert pinned[key] == result.counters()[key], f"{name}.{key}"
        assert abs(pinned["object_hit_ratio"] - result.object_hit_ratio) < 1e-9


#: The classic policies whose ``replay_span`` inlines ``request`` and
#: their hooks; a decision tracer must pin each of them to the base
#: walker, an observation never.
INLINED_KERNEL_POLICIES = ["lru", "lru-2", "lru-4", "lfu-da", "b-lru"]
#: Every policy shipping a native ``replay_span``: the inlined kernels
#: plus LHR's, which block-scores a span and walks ``request``, and
#: (W-)TinyLFU's, which hashes a span's keys and walks ``request``.
NATIVE_KERNEL_POLICIES = INLINED_KERNEL_POLICIES + ["lhr", "tinylfu", "w-tinylfu"]
#: LHR windows short enough to retrain several times on the fixture.
LHR_WINDOWS = {"min_window_requests": 100, "window_multiple": 1.0}


class TestInstrumentationForcesReferencePath:
    """A decision tracer forces the reference path; an observation,
    however much it records, leaves the native kernel engaged."""

    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_tracer_pins_the_shim(self, name, fixture_capacity):
        """A tracer pins an inlined kernel to the base walker; LHR's and
        the sketch kernels walk ``request``, so a tracer leaves them
        engaged."""
        policy = _build(name, fixture_capacity)
        assert "replay_span" not in policy.__dict__  # native kernel active
        policy.attach_tracer(TraceConfig().build())
        pinned = name in INLINED_KERNEL_POLICIES
        assert ("replay_span" in policy.__dict__) == pinned
        policy.attach_tracer(None)
        assert "replay_span" not in policy.__dict__  # kernel restored

    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_observation_keeps_kernel(self, name, fixture_capacity):
        policy = _build(name, fixture_capacity)
        obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        policy.attach_observation(obs)
        assert "replay_span" not in policy.__dict__  # native kernel active
        policy.attach_tracer(TraceConfig().build())
        pinned = name in INLINED_KERNEL_POLICIES  # a tracer still pins those
        assert ("replay_span" in policy.__dict__) == pinned
        policy.attach_tracer(None)
        assert "replay_span" not in policy.__dict__  # kernel restored

    @pytest.mark.parametrize("name", ["lhr", "d-lhr", "n-lhr"])
    def test_tracer_keeps_lhr_kernel(self, name, fixture_capacity):
        """LHR's kernel walks ``request``, so neither a tracer nor an
        observation ever puts the base walker into the instance dict."""
        policy = _build(name, fixture_capacity)
        policy.attach_observation(
            Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        )
        policy.attach_tracer(TraceConfig().build())
        assert "replay_span" not in policy.__dict__
        assert policy.replay_span.__func__ is LhrCache.replay_span
        policy.attach_tracer(None)
        assert "replay_span" not in policy.__dict__

    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_observed_run_matches_kernel_run(
        self, name, fixture_trace, fixture_capacity
    ):
        """An observed run replays the native kernel and agrees with an
        unobserved one to the counter bit."""
        packed = PackedTrace.from_trace(fixture_trace)
        fast = simulate(_build(name, fixture_capacity), packed)
        obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        observed = simulate(_build(name, fixture_capacity), packed, obs=obs)
        assert fast.counters() == observed.counters()

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize("packed", [False, True], ids=["trace", "packed"])
    @pytest.mark.parametrize("name", ["lru", "lru-2", "gdsf", "lhr", "w-tinylfu"])
    def test_instrumented_run_matches_request_oracle(
        self, name, packed, traced, fixture_trace, fixture_capacity, lhr_spans
    ):
        """An observed replay (windows, warmup) gives the per-request
        oracle's ordered event stream, timing fields aside, and equal
        decision records when traced.  A tracer pins an inlined kernel
        to the base walker; LHR's kernel runs traced or not."""
        kwargs = LHR_WINDOWS if name == "lhr" else {}
        replayed = PackedTrace.from_trace(fixture_trace) if packed else fixture_trace
        runs = []
        for replay, trace in ((_oracle, fixture_trace), (simulate, replayed)):
            obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
            policy = build_policy(name, fixture_capacity, **kwargs)
            result = replay(
                policy, trace,
                window_requests=300, warmup_requests=100,
                metadata_probe_interval=250, obs=obs,
                tracer=TraceConfig().build() if traced else None,
            )
            events = [
                {k: v for k, v in event.items() if not k.endswith("seconds")}
                for event in obs.recorder.events
            ]
            runs.append((result, events))
        (ref, ref_events), (run, run_events) = runs
        # The tier the engine replayed: the walker iff kernel-less, or
        # traced over an inlined kernel.
        walker = policy.replay_span.__func__ is CachePolicy.replay_span
        assert walker == (
            name not in NATIVE_KERNEL_POLICIES
            or (traced and name in INLINED_KERNEL_POLICIES)
        )
        assert bool(lhr_spans) == (name == "lhr")
        assert run.counters() == ref.counters()
        assert run.window_series() == ref.window_series()
        assert run_events == ref_events
        windows = [e for e in run_events if e["event"] == "sim.window"]
        assert [e["evictions"] for e in windows] == [
            w.evictions for w in run.windows
        ]
        assert len(windows) == 4
        if name == "lhr":
            assert any(e["event"].startswith("lhr.") for e in run_events)
        if traced:
            assert run.decision_trace.records == ref.decision_trace.records
            assert len(run.decision_trace.records) == len(fixture_trace)
        else:
            assert run.decision_trace is None

    def test_traced_packed_run_records_decisions(
        self, fixture_trace, fixture_capacity
    ):
        packed = PackedTrace.from_trace(fixture_trace)
        ref = simulate(
            _build("lru", fixture_capacity), fixture_trace,
            tracer=TraceConfig().build(),
        )
        fast = simulate(
            _build("lru", fixture_capacity), packed,
            tracer=TraceConfig().build(),
        )
        assert ref.counters() == fast.counters()
        assert len(fast.decision_trace.records) == len(ref.decision_trace.records)
        assert fast.decision_trace.records[-1] == ref.decision_trace.records[-1]


class TestSubclassSafety:
    def test_hook_override_survives_the_fast_path(self, fixture_trace):
        """A subclass overriding a hook must not inherit the parent's
        native kernel (which inlines the parent's hooks)."""
        hits = []

        class SpyLru(LruCache):
            def _on_hit(self, req):
                hits.append(req.obj_id)
                super()._on_hit(req)

        policy = SpyLru(10**12)
        assert "replay_span" in policy.__dict__  # base walker pinned
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert len(hits) == result.hits > 0

    @pytest.mark.parametrize("name", ["lru-2", "lfu-da", "b-lru"])
    def test_span_kernel_classes_block_foreign_subclasses(
        self, name, fixture_trace, fixture_capacity
    ):
        """Same discipline for the newer span-kernel policies: a hook
        override in a foreign subclass forces the shim tier, and the
        shimmed replay still matches the native kernel's counters."""
        base_cls = type(_build(name, fixture_capacity))
        hits = []

        def _on_hit(self, req):
            hits.append(req.obj_id)
            base_cls._on_hit(self, req)

        spy_cls = type(f"Spy{base_cls.__name__}", (base_cls,), {"_on_hit": _on_hit})
        policy = spy_cls(fixture_capacity)
        assert "replay_span" in policy.__dict__  # base walker pinned
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert len(hits) == result.hits > 0
        # Same constructor defaults on both sides of the comparison.
        native = simulate(base_cls(fixture_capacity), packed)
        assert result.counters() == native.counters()

    @pytest.mark.parametrize("name", ["lhr", "d-lhr", "n-lhr"])
    def test_lhr_kernel_runs_foreign_subclass_hooks(
        self, name, fixture_trace, fixture_capacity, lhr_spans
    ):
        """LHR's kernel walks ``request``, so a foreign subclass keeps it
        and its hook override fires on every hit."""
        base_cls = type(_build(name, fixture_capacity))
        hits = []

        def _on_hit(self, req):
            hits.append(req.obj_id)
            base_cls._on_hit(self, req)

        spy_cls = type(f"Spy{base_cls.__name__}", (base_cls,), {"_on_hit": _on_hit})
        policy = spy_cls(fixture_capacity, **LHR_WINDOWS)
        assert "replay_span" not in policy.__dict__
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert sum(end - begin for begin, end in lhr_spans) == len(fixture_trace)
        assert len(hits) == result.hits > 0
        assert policy.trainings > 1
        native = simulate(base_cls(fixture_capacity, **LHR_WINDOWS), packed)
        assert result.counters() == native.counters()

    def test_traced_lhr_scores_only_blocks(
        self, fixture_trace, fixture_capacity, monkeypatch
    ):
        """A traced LHR replay scores through ``score_block`` alone."""
        calls = {"score_one": 0, "score_block": 0}
        for method in calls:
            original = getattr(BatchedBackend, method)

            def counted(self, *args, _original=original, _method=method):
                calls[_method] += 1
                return _original(self, *args)

            monkeypatch.setattr(BatchedBackend, method, counted)
        policy = LhrCache(fixture_capacity, **LHR_WINDOWS)
        result = simulate(
            policy, PackedTrace.from_trace(fixture_trace),
            tracer=TraceConfig().build(),
        )
        assert len(result.decision_trace.records) == len(fixture_trace)
        assert policy.trainings > 1
        assert calls["score_one"] == 0
        assert calls["score_block"] > 0

    def test_request_after_a_hook_raised_mid_span_scores_afresh(
        self, fixture_trace, fixture_capacity
    ):
        """A hook raising inside LHR's kernel leaves no pre-scored row
        behind: the next direct ``request`` scores its own."""
        policy = LhrCache(fixture_capacity, **LHR_WINDOWS)
        packed = PackedTrace.from_trace(fixture_trace)
        cols = packed.obj_ids, packed.sizes, packed.times
        half = len(fixture_trace) // 2
        policy.replay_span(*cols, 0, half)
        assert policy.model_ready
        raised = []

        def boom(req):
            raised.append((req.obj_id, policy._current_p))
            raise RuntimeError("hook failed")

        policy._on_hit = boom
        with pytest.raises(RuntimeError, match="hook failed"):
            policy.replay_span(*cols, half, len(fixture_trace))
        del policy._on_hit
        [(stale_id, stale_p)] = raised
        now = fixture_trace[-1].time
        for req in fixture_trace:
            row = policy.features.vector(req.obj_id, now, policy.num_irts)
            fresh_p = min(max(policy._backend.score_one(policy._model, row), 0.0), 1.0)
            if req.obj_id != stale_id and fresh_p != stale_p:
                break
        else:  # pragma: no cover - the fixture always has such a content
            pytest.fail("no content scores apart from the stale request")
        policy.request(Request(now, req.obj_id, req.size))
        assert policy._current_p == fresh_p

    @pytest.mark.parametrize("name", ["tinylfu", "w-tinylfu"])
    def test_sketch_kernel_runs_foreign_subclass_hooks(
        self, name, fixture_trace, fixture_capacity
    ):
        """The sketch-admission kernel walks ``request`` like LHR's, so a
        foreign subclass keeps it and its hook override fires on every
        hit."""
        base_cls = type(_build(name, fixture_capacity))
        hits = []

        def _on_hit(self, req):
            hits.append(req.obj_id)
            base_cls._on_hit(self, req)

        spy_cls = type(f"Spy{base_cls.__name__}", (base_cls,), {"_on_hit": _on_hit})
        policy = spy_cls(fixture_capacity)
        assert "replay_span" not in policy.__dict__
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert len(hits) == result.hits > 0
        native = simulate(base_cls(fixture_capacity), packed)
        assert result.counters() == native.counters()

    def test_w_tinylfu_request_after_a_hook_raised_mid_span_hashes_afresh(
        self, fixture_trace, fixture_capacity
    ):
        """A hook raising inside the sketch-admission kernel leaves no
        hashed cells behind: the next direct ``request`` counts its own
        key, not the key of the request that raised."""
        policy = WTinyLfuCache(fixture_capacity)
        packed = PackedTrace.from_trace(fixture_trace)
        cols = packed.obj_ids, packed.sizes, packed.times
        half = len(fixture_trace) // 2
        policy.replay_span(*cols, 0, half)
        raised = []

        def boom(req):
            raised.append((req.obj_id, policy._cells))
            raise RuntimeError("hook failed")

        policy._on_hit = boom
        with pytest.raises(RuntimeError, match="hook failed"):
            policy.replay_span(*cols, half, len(fixture_trace))
        del policy._on_hit
        assert policy._cells is None
        [(stale_id, stale_cells)] = raised
        sketch = policy._sketch
        assert stale_cells == sketch._cells(stale_id)
        req = next(
            req
            for req in fixture_trace
            if set(sketch._cells(req.obj_id)).isdisjoint(stale_cells)
            and sketch.estimate(req.obj_id) < 15
        )
        before = sketch._table.ravel().copy()
        policy.request(Request(fixture_trace[-1].time, req.obj_id, req.size))
        moved = np.flatnonzero(sketch._table.ravel() != before).tolist()
        assert moved and set(moved) <= set(sketch._cells(req.obj_id))

    def test_request_override_survives_the_fast_path(self, fixture_trace):
        calls = []

        class CountingLru(LruCache):
            def request(self, req):
                calls.append(req.index)
                return super().request(req)

        policy = CountingLru(10**12)
        simulate(policy, PackedTrace.from_trace(fixture_trace))
        assert calls == list(range(len(fixture_trace)))

    def test_base_shim_passes_the_real_index(self):
        seen = []

        class IndexSpy(CachePolicy):
            name = "index-spy"

            def _on_access(self, req):
                seen.append(req.index)

            def _select_victim(self, incoming):  # pragma: no cover
                raise AssertionError("never evicts")

        policy = IndexSpy(10**12)
        packed = PackedTrace.from_arrays([0.0, 1.0], [1, 2], [10, 10])
        simulate(policy, packed)
        assert seen == [0, 1]
