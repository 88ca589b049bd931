"""Parallel sweep executor: serial/parallel equivalence, grid ordering,
failure containment, and policy determinism.

The equivalence tests are the load-bearing part of the parallel engine:
process-pool execution must be *bit-identical* to serial execution for
every registered policy, or every speedup silently changes the science.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.obs import (
    LearnerTelemetry,
    MemoryRecorder,
    MetricsRegistry,
    Observation,
    SpanRecorder,
)
from repro.obs.learner import series_equal
from repro.policies import POLICY_REGISTRY
from repro.policies.classic import LruCache
from repro.sim import (
    CellSpec,
    PackedTrace,
    SweepCellError,
    known_policies,
    run_comparison,
    run_sweep,
)
from repro.sim.parallel import SLOWEST_FIRST, start_order
from repro.sim.runner import sweep_specs
from repro.traces.packed import SharedTraceBuffers, live_segment_names
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace

#: Trimmed learner settings so the heavyweight policies train at this
#: trace size without dominating suite wall time.
SWEEP_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method to inherit test-local policies",
)


@pytest.fixture(scope="module")
def sweep_trace():
    return irm_trace(
        600, 60, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=5, name="sweep"
    )


@pytest.fixture(scope="module")
def sweep_capacity(sweep_trace):
    return max(int(0.2 * sweep_trace.unique_bytes()), 1)


def result_key(result):
    """Everything equivalence must preserve, ratios included."""
    return (
        result.policy,
        result.capacity,
        result.counters(),
        result.object_hit_ratio,
        result.byte_hit_ratio,
        result.window_series(),
    )


class TestPackedTrace:
    def test_roundtrip(self, sweep_trace):
        packed = PackedTrace.from_trace(sweep_trace)
        assert len(packed) == len(sweep_trace)
        rebuilt = packed.unpack()
        assert rebuilt.name == sweep_trace.name
        assert rebuilt.metadata == sweep_trace.metadata
        assert rebuilt.requests == sweep_trace.requests

    def test_roundtrip_preserves_indices(self, sweep_trace):
        rebuilt = PackedTrace.from_trace(sweep_trace).unpack()
        assert [req.index for req in rebuilt] == list(range(len(sweep_trace)))


class TestEquivalence:
    def test_every_policy_serial_vs_parallel(self, sweep_trace, sweep_capacity):
        """The headline guarantee: parallel == serial for ALL policies,
        down to per-window hit series and ratio bits."""
        names = known_policies()
        serial = run_comparison(
            sweep_trace,
            names,
            [sweep_capacity],
            window_requests=100,
            policy_kwargs=SWEEP_KWARGS,
        )
        parallel = run_comparison(
            sweep_trace,
            names,
            [sweep_capacity],
            window_requests=100,
            policy_kwargs=SWEEP_KWARGS,
            parallel=2,
        )
        assert [result_key(r) for r in serial] == [result_key(r) for r in parallel]

    def test_multi_capacity_grid_with_warmup(self, sweep_trace, sweep_capacity):
        names = ["lru", "lhd", "adaptsize", "w-tinylfu"]
        kwargs = dict(
            window_requests=150, warmup_requests=100, policy_kwargs=SWEEP_KWARGS
        )
        serial = run_comparison(
            sweep_trace, names, [sweep_capacity, 2 * sweep_capacity], **kwargs
        )
        parallel = run_comparison(
            sweep_trace,
            names,
            [sweep_capacity, 2 * sweep_capacity],
            parallel=3,
            **kwargs,
        )
        assert [result_key(r) for r in serial] == [result_key(r) for r in parallel]


def normalized_events(obs):
    """Events minus the nondeterministic parts: ``seq`` (recorder-local)
    and wall-clock ``*_seconds`` durations."""
    return [
        {
            k: v
            for k, v in event.items()
            if k != "seq" and not k.endswith("_seconds")
        }
        for event in obs.recorder.events
    ]


class TestObservedEquivalence:
    """Instrumentation must not break the bit-equivalence guarantee:
    with a recorder attached, parallel and serial sweeps produce the
    same results, the same grid-ordered event stream, and the same
    deterministic registry contents."""

    NAMES = ["lru", "lhr", "gdsf"]

    def _run(self, trace, capacity, parallel):
        obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        results = run_comparison(
            trace,
            self.NAMES,
            [capacity],
            window_requests=200,
            policy_kwargs=SWEEP_KWARGS,
            parallel=parallel,
            obs=obs,
        )
        return results, obs

    def test_parallel_matches_serial_with_recorder_on(
        self, sweep_trace, sweep_capacity
    ):
        serial_results, serial_obs = self._run(sweep_trace, sweep_capacity, 0)
        parallel_results, parallel_obs = self._run(sweep_trace, sweep_capacity, 2)
        assert [result_key(r) for r in serial_results] == [
            result_key(r) for r in parallel_results
        ]
        serial_events = normalized_events(serial_obs)
        assert serial_events == normalized_events(parallel_obs)
        # The stream actually observed something: every cell started and
        # finished, and the replay loop reported its windows.
        types = [e["event"] for e in serial_events]
        assert types.count("sweep.cell_start") == len(self.NAMES)
        assert types.count("sweep.cell_done") == len(self.NAMES)
        assert "sim.window" in types

    def test_registries_agree_on_deterministic_metrics(
        self, sweep_trace, sweep_capacity
    ):
        _, serial_obs = self._run(sweep_trace, sweep_capacity, 0)
        _, parallel_obs = self._run(sweep_trace, sweep_capacity, 2)
        serial = serial_obs.registry.as_dict()
        parallel = parallel_obs.registry.as_dict()
        assert set(serial) == set(parallel)
        for name in serial:
            if name.endswith("_seconds"):
                # Durations differ; the observation *count* must not.
                assert serial[name]["count"] == parallel[name]["count"], name
            else:
                assert serial[name] == parallel[name], name

    def test_failed_cell_emits_event_in_both_modes(
        self, sweep_trace, sweep_capacity, exploding_policy
    ):
        obs = Observation(recorder=MemoryRecorder())
        with pytest.raises(SweepCellError):
            run_comparison(
                sweep_trace,
                [exploding_policy, "lru"],
                [sweep_capacity],
                obs=obs,
            )
        failed = [
            e for e in obs.recorder.events if e["event"] == "sweep.cell_failed"
        ]
        assert len(failed) == 1
        assert failed[0]["policy"] == exploding_policy
        assert "synthetic mid-simulation failure" in failed[0]["error"]
        done = [
            e for e in obs.recorder.events if e["event"] == "sweep.cell_done"
        ]
        assert [e["policy"] for e in done] == ["lru"]

    @pytest.mark.parametrize("parallel", [0, 2])
    def test_event_fields_stamp_whole_stream(
        self, sweep_trace, sweep_capacity, parallel
    ):
        # The workload lab tags each sweep's events (scenario, lab_run);
        # every event of the stream must carry the tag in both modes.
        obs = Observation(recorder=MemoryRecorder())
        run_comparison(
            sweep_trace,
            ["lru", "lhr"],
            [sweep_capacity],
            policy_kwargs=SWEEP_KWARGS,
            parallel=parallel,
            obs=obs,
            event_fields={"scenario": "churn", "lab_run": 4},
        )
        assert obs.recorder.events
        for event in obs.recorder.events:
            assert event["scenario"] == "churn"
            assert event["lab_run"] == 4

    def test_no_event_fields_leaves_stream_untagged(
        self, sweep_trace, sweep_capacity
    ):
        obs = Observation(recorder=MemoryRecorder())
        run_comparison(
            sweep_trace, ["lru"], [sweep_capacity],
            policy_kwargs=SWEEP_KWARGS, obs=obs,
        )
        assert obs.recorder.events
        assert all("scenario" not in e for e in obs.recorder.events)


class TestGridOrder:
    def test_results_in_capacity_major_grid_order(self, sweep_trace, sweep_capacity):
        names = ["gdsf", "lru", "lfu"]
        capacities = [2 * sweep_capacity, sweep_capacity]
        results = run_comparison(sweep_trace, names, capacities, parallel=2)
        expected = [(c, n) for c in capacities for n in names]
        assert [(r.capacity, r.policy) for r in results] == expected
        assert [r.cell_index for r in results] == list(range(len(expected)))

    def test_explicit_spec_indices_win(self, sweep_trace, sweep_capacity):
        # Reversed submission order still comes back sorted by index.
        specs = [
            CellSpec.make("lfu", sweep_capacity, index=1),
            CellSpec.make("lru", sweep_capacity, index=0),
        ]
        results = run_sweep(sweep_trace, specs, jobs=2)
        assert [r.policy for r in results] == ["lru", "lfu"]

    def test_duplicate_indices_rejected(self, sweep_trace, sweep_capacity):
        specs = [
            CellSpec.make("lru", sweep_capacity, index=0),
            CellSpec.make("lfu", sweep_capacity, index=0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(sweep_trace, specs, jobs=2)

    def test_empty_grid(self, sweep_trace):
        assert run_sweep(sweep_trace, [], jobs=2) == []


class _ExplodingCache(LruCache):
    """LRU that detonates mid-simulation after a fixed request count."""

    name = "exploding"

    def __init__(self, capacity: int, fail_after: int = 20):
        super().__init__(capacity)
        self._fail_after = fail_after
        self._seen = 0

    def request(self, req: Request) -> bool:
        self._seen += 1
        if self._seen > self._fail_after:
            raise RuntimeError(f"synthetic mid-simulation failure at {self._seen}")
        return super().request(req)


@pytest.fixture()
def exploding_policy():
    POLICY_REGISTRY["exploding"] = _ExplodingCache
    try:
        yield "exploding"
    finally:
        POLICY_REGISTRY.pop("exploding", None)


class TestFailureContainment:
    def test_worker_constructor_error_names_cell(self, sweep_trace, sweep_capacity):
        with pytest.raises(SweepCellError) as excinfo:
            run_comparison(
                sweep_trace,
                ["lru", "lfu"],
                [sweep_capacity],
                policy_kwargs={"lru": {"bogus_kwarg": 1}},
                parallel=2,
            )
        error = excinfo.value
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert failure.policy == "lru"
        assert failure.capacity == sweep_capacity
        assert "bogus_kwarg" in failure.traceback
        # The sibling cell completed and its result survived.
        surviving = [r for r in error.results if r is not None]
        assert [r.policy for r in surviving] == ["lfu"]
        assert surviving[0].requests == len(sweep_trace)

    @requires_fork
    def test_mid_simulation_error_does_not_poison_siblings(
        self, sweep_trace, sweep_capacity, exploding_policy
    ):
        # fork inherits the test-registered policy; both exploding cells
        # fail, all four sibling cells still produce full results.
        fork = multiprocessing.get_context("fork")
        capacities = [sweep_capacity, 2 * sweep_capacity]
        with pytest.raises(SweepCellError) as excinfo:
            run_comparison(
                sweep_trace,
                ["lru", exploding_policy, "lfu"],
                capacities,
                parallel=2,
                mp_context=fork,
            )
        error = excinfo.value
        assert sorted(f.policy for f in error.failures) == ["exploding", "exploding"]
        assert sorted(f.capacity for f in error.failures) == sorted(capacities)
        assert all("synthetic mid-simulation failure" in f.traceback
                   for f in error.failures)
        surviving = [r for r in error.results if r is not None]
        assert len(surviving) == 4
        assert all(r.requests == len(sweep_trace) for r in surviving)

    def test_serial_mode_same_error_contract(
        self, sweep_trace, sweep_capacity, exploding_policy
    ):
        with pytest.raises(SweepCellError) as excinfo:
            run_comparison(
                sweep_trace, [exploding_policy, "lru"], [sweep_capacity]
            )
        error = excinfo.value
        assert error.failures[0].policy == "exploding"
        assert str(sweep_capacity) in str(error)
        assert [r.policy for r in error.results if r is not None] == ["lru"]

    def test_unknown_policy_fails_fast_in_driver(self, sweep_trace, sweep_capacity):
        with pytest.raises(ValueError, match="unknown policies"):
            run_comparison(sweep_trace, ["lru", "nope"], [sweep_capacity], parallel=2)

    @pytest.mark.parametrize("parallel", [0, 2])
    def test_bad_warmup_fails_before_any_cell(
        self, sweep_trace, sweep_capacity, parallel, monkeypatch
    ):
        import repro.sim.parallel as parallel_module

        def no_cell(*args, **kwargs):
            raise AssertionError("a sweep cell started")

        monkeypatch.setattr(parallel_module, "_run_cell", no_cell)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", no_cell)
        with pytest.raises(ValueError, match="warmup_requests"):
            run_comparison(
                sweep_trace, ["lru", "gdsf"], [sweep_capacity],
                warmup_requests=len(sweep_trace), parallel=parallel,
            )


class TestDeterminism:
    """Two runs of the same seeded policy must agree bit-for-bit —
    the precondition for any serial/parallel equivalence claim."""

    RNG_POLICIES = ["random", "lhd", "hyperbolic", "adaptsize", "lrb", "lhr"]

    @pytest.mark.parametrize("name", RNG_POLICIES)
    def test_repeated_runs_identical(self, sweep_trace, sweep_capacity, name):
        runs = [
            run_comparison(
                sweep_trace,
                [name],
                [sweep_capacity],
                window_requests=100,
                policy_kwargs=SWEEP_KWARGS,
            )[0]
            for _ in range(2)
        ]
        assert result_key(runs[0]) == result_key(runs[1])

    def test_repeated_parallel_runs_identical(self, sweep_trace, sweep_capacity):
        runs = [
            run_comparison(
                sweep_trace,
                self.RNG_POLICIES,
                [sweep_capacity],
                policy_kwargs=SWEEP_KWARGS,
                parallel=2,
            )
            for _ in range(2)
        ]
        assert [result_key(r) for r in runs[0]] == [result_key(r) for r in runs[1]]


class TestSharedMemorySweep:
    """The zero-copy transport: pooled sweeps ship a descriptor, not the
    trace, and the driver never leaks a segment — normal exit, worker
    failure, or KeyboardInterrupt."""

    def test_pooled_sweep_uses_shared_memory(
        self, sweep_trace, sweep_capacity, monkeypatch
    ):
        created = []
        original_create = SharedTraceBuffers.create.__func__

        def spy_create(cls, packed):
            shared = original_create(cls, packed)
            created.append(shared)
            return shared

        monkeypatch.setattr(
            SharedTraceBuffers, "create", classmethod(spy_create)
        )
        serial = run_comparison(sweep_trace, ["lru", "lfu"], [sweep_capacity])
        assert not created  # serial runs never touch shared memory
        pooled = run_comparison(
            sweep_trace, ["lru", "lfu"], [sweep_capacity], parallel=2
        )
        assert len(created) == 1
        assert created[0].released
        assert [result_key(r) for r in pooled] == [result_key(r) for r in serial]
        assert live_segment_names() == ()

    def test_pickle_fallback_when_shared_memory_unavailable(
        self, sweep_trace, sweep_capacity, monkeypatch
    ):
        """Platforms without usable /dev/shm still sweep correctly."""

        def refuse(cls, packed):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(SharedTraceBuffers, "create", classmethod(refuse))
        serial = run_comparison(sweep_trace, ["lru", "lfu"], [sweep_capacity])
        pooled = run_comparison(
            sweep_trace, ["lru", "lfu"], [sweep_capacity], parallel=2
        )
        assert [result_key(r) for r in pooled] == [result_key(r) for r in serial]

    def test_no_leak_after_normal_completion(self, sweep_trace, sweep_capacity):
        run_comparison(sweep_trace, ["lru", "lfu"], [sweep_capacity], parallel=2)
        assert live_segment_names() == ()

    def test_no_leak_after_worker_failure(
        self, sweep_trace, sweep_capacity, exploding_policy
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to inherit the test-local policy")
        fork = multiprocessing.get_context("fork")
        with pytest.raises(SweepCellError):
            run_comparison(
                sweep_trace,
                [exploding_policy, "lru"],
                [sweep_capacity],
                parallel=2,
                mp_context=fork,
            )
        assert live_segment_names() == ()

    def test_no_leak_after_keyboard_interrupt(
        self, sweep_trace, sweep_capacity, monkeypatch
    ):
        import repro.sim.parallel as parallel_module

        def interrupt(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_module, "as_completed", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_comparison(
                sweep_trace, ["lru", "lfu"], [sweep_capacity], parallel=2
            )
        assert live_segment_names() == ()

    def test_prepacked_trace_sweeps_identically(self, sweep_trace, sweep_capacity):
        """Callers may hand the sweep a PackedTrace directly."""
        packed = PackedTrace.from_trace(sweep_trace)
        serial = run_comparison(sweep_trace, ["lru", "lhd"], [sweep_capacity])
        pooled = run_comparison(packed, ["lru", "lhd"], [sweep_capacity], parallel=2)
        assert [result_key(r) for r in pooled] == [result_key(r) for r in serial]
        assert live_segment_names() == ()


class TestSweepSpans:
    """Span timelines over the sweep: one cell span per cell, worker
    pids preserved, and zero effect on results."""

    def _obs(self):
        from repro.obs import Observation, SpanRecorder

        return Observation.sidecars_only(spans=SpanRecorder())

    def test_inline_sweep_records_cell_spans(self, sweep_trace, sweep_capacity):
        obs = self._obs()
        run_comparison(
            sweep_trace, ["lru", "lhd"], [sweep_capacity], obs=obs
        )
        spans = obs.spans.spans
        by_name = {span.name: span for span in spans}
        cells = [span for span in spans if span.cat == "cell"]
        assert len(cells) == 2
        assert {span.name for span in cells} == {
            f"lru@{sweep_capacity}", f"lhd@{sweep_capacity}"
        }
        sweep_span = by_name["sweep.run"]
        assert all(span.parent_id == sweep_span.span_id for span in cells)
        # Inline cells run in the driver process.
        assert {span.pid for span in cells} == {obs.spans.pid}
        # Each cell nests its replay.
        replays = [span for span in spans if span.name == "sim.replay"]
        assert len(replays) == 2

    @requires_fork
    def test_pooled_sweep_merges_worker_timelines(
        self, sweep_trace, sweep_capacity
    ):
        obs = self._obs()
        run_comparison(
            sweep_trace,
            ["lru", "lhd", "lfu", "gdsf"],
            [sweep_capacity],
            parallel=2,
            obs=obs,
        )
        spans = obs.spans.spans
        names = {span.name for span in spans}
        assert {"sweep.run", "sweep.scatter", "sweep.gather"} <= names
        cells = [span for span in spans if span.cat == "cell"]
        assert len(cells) == 4  # exactly the sweep's cell count
        worker_pids = {span.pid for span in cells}
        assert len(worker_pids) == 2  # one lane per worker
        assert obs.spans.pid not in worker_pids  # real forked pids
        # Worker cells hang off the driver's gather span, cross-process.
        gather = next(span for span in spans if span.name == "sweep.gather")
        for span in cells:
            assert span.parent_id == gather.span_id
            assert span.parent_pid == obs.spans.pid
        # Cell spans carry the hit ratio for straggler forensics.
        assert all("hit_ratio" in span.args for span in cells)

    @requires_fork
    def test_spans_do_not_change_results(self, sweep_trace, sweep_capacity):
        plain = run_comparison(
            sweep_trace, ["lru", "lhd"], [sweep_capacity], parallel=2
        )
        traced = run_comparison(
            sweep_trace,
            ["lru", "lhd"],
            [sweep_capacity],
            parallel=2,
            obs=self._obs(),
        )
        assert [result_key(r) for r in traced] == [result_key(r) for r in plain]

    @requires_fork
    def test_failed_cell_span_is_closed_and_flagged(
        self, sweep_trace, sweep_capacity, exploding_policy
    ):
        obs = self._obs()
        specs = [
            CellSpec(exploding_policy, sweep_capacity, index=0),
            CellSpec("lru", sweep_capacity, index=1),
        ]
        with pytest.raises(SweepCellError):
            run_sweep(
                PackedTrace.from_trace(sweep_trace), specs, jobs=2, obs=obs
            )
        cells = [span for span in obs.spans.spans if span.cat == "cell"]
        assert len(cells) == 2  # the failed cell still closed its span
        failed = next(s for s in cells if s.name.startswith(exploding_policy))
        assert failed.args.get("failed") is True


class TestStartOrder:
    """The pool starts cells slowest policy first and gathers them by
    index, so the start order moves no result, event or series."""

    #: sweep-cdn-a's policies, in grid order; their start order differs.
    NAMES = ["lru", "gdsf", "w-tinylfu", "lhd", "lhr"]

    #: LHR closes six windows per cell on the sweep trace at both sizes.
    KWARGS = {"lhr": {"min_window_requests": 100, "window_multiple": 1.0}}

    def test_costlier_cells_start_first(self):
        specs = sweep_specs(self.NAMES, [1000, 2000])
        assert [(s.policy, s.index) for s in start_order(specs)] == [
            ("lhr", 4), ("lhr", 9),
            ("lhd", 3), ("lhd", 8),
            ("w-tinylfu", 2), ("w-tinylfu", 7),
            ("gdsf", 1), ("gdsf", 6),
            ("lru", 0), ("lru", 5),
        ]

    def test_equal_costs_keep_grid_order_whatever_the_list_order(self):
        specs = sweep_specs(["lru", "lhr", "LRU"], [1000, 2000])
        expected = [1, 4, 0, 2, 3, 5]
        assert [s.index for s in start_order(specs)] == expected
        assert [s.index for s in start_order(specs[::-1])] == expected

    def test_unranked_policy_starts_first(self, exploding_policy):
        specs = sweep_specs(["lru", "lhr", exploding_policy], [1000])
        assert [s.policy for s in start_order(specs)] == [
            exploding_policy, "lhr", "lru",
        ]

    def test_ranking_names_every_registered_policy_once(self):
        """A newly registered policy fails here until it is ranked."""
        assert len(set(SLOWEST_FIRST)) == len(SLOWEST_FIRST)
        assert sorted(SLOWEST_FIRST) == known_policies()

    def _run(self, trace, capacity, parallel):
        obs = Observation(
            recorder=MemoryRecorder(),
            registry=MetricsRegistry(),
            learner=LearnerTelemetry(),
        )
        results = run_comparison(
            trace,
            self.NAMES,
            [capacity, 2 * capacity],
            window_requests=200,
            policy_kwargs=self.KWARGS,
            parallel=parallel,
            obs=obs,
        )
        return results, obs

    def test_reordered_pool_matches_serial(self, sweep_trace, sweep_capacity):
        specs = sweep_specs(self.NAMES, [sweep_capacity, 2 * sweep_capacity])
        assert start_order(specs) != specs  # the pool really reorders
        serial, serial_obs = self._run(sweep_trace, sweep_capacity, 0)
        pooled, pooled_obs = self._run(sweep_trace, sweep_capacity, 2)
        assert [result_key(r) for r in pooled] == [result_key(r) for r in serial]
        assert normalized_events(pooled_obs) == normalized_events(serial_obs)
        serial_registry = serial_obs.registry.as_dict()
        pooled_registry = pooled_obs.registry.as_dict()
        assert set(pooled_registry) == set(serial_registry)
        for name, value in serial_registry.items():
            if name.endswith("_seconds"):
                assert pooled_registry[name]["count"] == value["count"], name
            else:
                assert pooled_registry[name] == value, name
        serial_cells = serial_obs.learner.cells()
        pooled_cells = pooled_obs.learner.cells()
        assert [i for i, _ in pooled_cells] == [i for i, _ in serial_cells]
        assert [s.windows for _, s in serial_cells if s.policy == "lhr"] == [6, 6]
        for (_, left), (_, right) in zip(serial_cells, pooled_cells):
            assert (left.policy, left.capacity) == (right.policy, right.capacity)
            assert series_equal(left, right)

    def test_pool_gets_cells_in_start_order(
        self, sweep_trace, sweep_capacity, monkeypatch
    ):
        import repro.sim.parallel as parallel_module

        submitted = []

        class RecordingPool(parallel_module.ProcessPoolExecutor):
            def submit(self, fn, spec, *args, **kwargs):
                submitted.append(spec.index)
                return super().submit(fn, spec, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", RecordingPool)
        obs = Observation.sidecars_only(spans=SpanRecorder())
        run_comparison(
            sweep_trace, self.NAMES, [sweep_capacity], parallel=2, obs=obs
        )
        assert submitted == [4, 3, 2, 1, 0]
        scatter = next(s for s in obs.spans.spans if s.name == "sweep.scatter")
        assert scatter.args["order"] == submitted
