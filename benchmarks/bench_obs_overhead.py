"""Engineering benchmark: cost of the observability layer.

Two claims to pin down:

* the **disabled** path (the default ``NULL_OBS`` handle) is effectively
  free — every instrumentation site reduces to one attribute check, and
  that check costs <2% of what ``simulate()`` already spends per request
  (asserted; the check is measured directly, so the bound holds even on
  noisy shared runners);
* the **enabled** path (in-memory recorder + registry) stays cheap
  enough to leave on for diagnostics (reported, not asserted — window
  and training events dominate, not per-request work).

The decision tracer (``repro.obs.trace``) adds nothing to the disabled
path by construction — ``attach_tracer`` swaps the ``request`` dispatch
instead of guarding inside it — and the test asserts the untraced
policy carries no dispatch shadow.  The full-record tracing cost is
reported as ``traced_overhead_percent`` (large relative to a bare LRU
replay, which is the point of sampling and ring buffers).  Reported
costs land in pytest-benchmark's ``extra_info`` and one printed line
per test.

Set ``REPRO_ASSERT_OBS_OVERHEAD=0`` to waive the assertion (same
convention as ``REPRO_ASSERT_SPEEDUP``).
"""

import os
import time

import pytest

from benchmarks.common import cache_bytes, trace
from repro.obs import (
    NULL_OBS,
    DecisionTracer,
    LearnerTelemetry,
    MemoryRecorder,
    Observation,
    RunLedger,
    SpanRecorder,
    record_from_results,
)
from repro.policies.classic import LruCache
from repro.sim import build_policy, simulate

#: Repeats per variant; medians tame scheduler noise on shared runners.
ROUNDS = 5

#: Iterations for timing the bare guard expression.
GUARD_ITERS = 200_000


def _median(samples):
    return sorted(samples)[len(samples) // 2]


class _WalkedLru(LruCache):
    """LRU with no hook overridden.  Its type is not ``LruCache``, so the
    pin rule keeps it on the base walker: every arm replays through
    ``request`` and ``_admit``, the tier a decision tracer pins, so the
    disabled, enabled and traced arms all time the same code."""


def _replay_seconds(workload, obs_factory, rounds=ROUNDS, tracer_factory=None):
    capacity = cache_bytes("cdn-a", 512)
    samples = []
    last_policy = None
    for _ in range(rounds):
        policy = _WalkedLru(capacity)
        tracer = tracer_factory() if tracer_factory is not None else None
        start = time.perf_counter()
        simulate(policy, workload, obs=obs_factory(), tracer=tracer)
        samples.append(time.perf_counter() - start)
        last_policy = policy
    return _median(samples), last_policy


def _guard_seconds_per_check():
    """Direct cost of the disabled-path guard (``obs.enabled``), net of
    the timing loop's own overhead."""
    obs = NULL_OBS
    sink = 0
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(GUARD_ITERS):
            pass
        empty = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(GUARD_ITERS):
            if obs.enabled:
                sink += 1
        guarded = time.perf_counter() - start
        samples.append(max(guarded - empty, 0.0) / GUARD_ITERS)
    assert sink == 0
    return _median(samples)


@pytest.fixture(scope="module")
def workload():
    return trace("cdn-a")


def test_noop_recorder_overhead_under_two_percent(workload, benchmark):
    """The acceptance bar: the no-op recorder costs <2% of simulate()."""
    # Warmup replay touches every lazy import and allocator path.
    _replay_seconds(workload, lambda: NULL_OBS, rounds=1)

    disabled, policy = _replay_seconds(workload, lambda: NULL_OBS)
    enabled, _ = _replay_seconds(
        workload, lambda: Observation(recorder=MemoryRecorder())
    )
    traced, _ = _replay_seconds(
        workload, lambda: NULL_OBS, tracer_factory=DecisionTracer
    )
    per_request = disabled / len(workload)
    per_check = _guard_seconds_per_check()
    # When disabled, the replay loop carries one guard per chunk, never
    # per request, and the admission path carries none.  ``checks``
    # still charges one guard per admission (plus the engine's one-time
    # setup), so it over-counts the guards that remain and keeps the
    # bound conservative.  The decision tracer adds NO disabled-path
    # check: attach_tracer swaps the ``request``
    # dispatch through the instance dict instead of guarding inside it,
    # and victim capture shadows ``_remove`` only while a traced
    # request is in flight.  Assert that construction still holds —
    # an untraced policy must run the seed's exact instruction stream.
    assert "request" not in policy.__dict__, (
        "untraced policy carries a request() shadow; the tracer has "
        "leaked cost onto the disabled path"
    )
    assert "_remove" not in policy.__dict__, (
        "untraced policy carries a _remove() shadow; victim capture has "
        "leaked cost onto the disabled path"
    )
    checks = policy.admissions + 1  # +1 for the engine's one-time setup
    overhead_ratio = checks * per_check / disabled

    benchmark.pedantic(
        lambda: simulate(
            build_policy("lru", cache_bytes("cdn-a", 512)), workload
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        requests=len(workload),
        admissions=policy.admissions,
        evictions=policy.evictions,
        disabled_seconds=round(disabled, 4),
        enabled_seconds=round(enabled, 4),
        enabled_overhead_percent=round(100 * (enabled / disabled - 1.0), 2),
        traced_overhead_percent=round(100 * (traced / disabled - 1.0), 2),
        guard_nanoseconds=round(per_check * 1e9, 1),
        disabled_overhead_percent=round(100 * overhead_ratio, 3),
    )
    print(
        f"\nobs overhead: guard {per_check * 1e9:.0f}ns/check x "
        f"{checks} checks, request {per_request * 1e6:.1f}us -> "
        f"disabled path {100 * overhead_ratio:.3f}% of replay; "
        f"enabled path {100 * (enabled / disabled - 1.0):+.1f}%; "
        f"decision tracing {100 * (traced / disabled - 1.0):+.1f}%"
    )
    if os.environ.get("REPRO_ASSERT_OBS_OVERHEAD", "1") != "0":
        assert overhead_ratio < 0.02, (
            f"disabled-path guards cost {100 * overhead_ratio:.2f}% of "
            "per-request replay time (>2%); the NULL_OBS fast path has "
            "grown per-request cost"
        )


def test_span_recording_overhead_reported(workload, benchmark):
    """Timeline spans are coarse by design — one span per replay, chunk,
    window close, and learner phase, never per request — so recording
    them should cost a few percent at most.  The enabled cost is
    **reported**, not asserted (it rides the same noisy runners as the
    enabled-recorder cell); what *is* asserted is that span capture
    changes nothing about the replay's accounting and that the disabled
    path stays covered by the <2% pin above
    (``Observation.sidecars_only`` keeps ``enabled=False``, so span
    capture builds no events or metrics).
    """
    capacity = cache_bytes("cdn-a", 512)
    _replay_seconds(workload, lambda: NULL_OBS, rounds=1)  # warmup

    disabled, _ = _replay_seconds(workload, lambda: NULL_OBS)
    recorders = []

    def spans_obs():
        recorder = SpanRecorder()
        recorders.append(recorder)
        return Observation.sidecars_only(spans=recorder)

    spanned, _ = _replay_seconds(workload, spans_obs)
    span_counts = [len(r) for r in recorders]
    assert all(count > 0 for count in span_counts), (
        "spans-enabled replay recorded no spans; instrumentation sites "
        "have been bypassed"
    )

    # Span capture must be invisible to the accounting.
    baseline = simulate(build_policy("lru", capacity), workload, obs=NULL_OBS)
    traced = simulate(
        build_policy("lru", capacity),
        workload,
        obs=Observation.sidecars_only(spans=SpanRecorder()),
    )
    assert traced.counters() == baseline.counters(), (
        "span recording changed replay accounting"
    )

    overhead = spanned / disabled - 1.0
    benchmark.pedantic(
        lambda: simulate(
            build_policy("lru", capacity),
            workload,
            obs=Observation.sidecars_only(spans=SpanRecorder()),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        requests=len(workload),
        disabled_seconds=round(disabled, 4),
        spans_seconds=round(spanned, 4),
        spans_overhead_percent=round(100 * overhead, 2),
        spans_per_replay=span_counts[-1],
    )
    print(
        f"\nspan recording: {span_counts[-1]} spans/replay, "
        f"{spanned * 1e3:.1f}ms vs {disabled * 1e3:.1f}ms disabled -> "
        f"{100 * overhead:+.1f}%"
    )


def test_learner_telemetry_overhead_reported(workload, benchmark):
    """Learner telemetry fires at window closes and GBM refits — never
    per request — so the honest denominator is a *windowed LHR* replay,
    not the bare LRU loop above.  The enabled cost is **reported**, not
    asserted (score histograms + calibration moments ride the same noisy
    runners as the other enabled cells); what *is* asserted is that the
    telemetry changes nothing about the replay's accounting and that the
    disabled path stays covered by the <2% pin above
    (``Observation.sidecars_only`` keeps ``enabled=False``, and no
    observation pins the base walker, so the LHR span kernel stays
    engaged).
    """
    capacity = cache_bytes("cdn-a", 512)
    window = max(len(workload) // 32, 1)
    rounds = 3  # LHR replays dominate wall time; 3 medians suffice

    def lhr_replay(obs_factory):
        samples, last = [], None
        for _ in range(rounds):
            policy = build_policy("lhr", capacity)
            obs = obs_factory()
            start = time.perf_counter()
            last = simulate(
                policy, workload, window_requests=window, obs=obs
            )
            samples.append(time.perf_counter() - start)
        return _median(samples), last

    lhr_replay(lambda: NULL_OBS)  # warmup (lazy imports, GBM paths)
    plain, baseline = lhr_replay(lambda: NULL_OBS)
    observed, result = lhr_replay(
        lambda: Observation.sidecars_only(learner=LearnerTelemetry())
    )

    series = result.learner
    assert series is not None and series.windows > 0, (
        "learner-enabled replay recorded no windows; the LHR "
        "instrumentation sites have been bypassed"
    )
    assert baseline.learner is None, (
        "plain replay carried a learner series; the sink has leaked "
        "onto the disabled path"
    )
    # Telemetry must be invisible to the accounting.
    assert result.counters() == baseline.counters(), (
        "learner telemetry changed replay accounting"
    )

    overhead = observed / plain - 1.0
    per_window = (observed - plain) / series.windows
    benchmark.pedantic(
        lambda: simulate(
            build_policy("lhr", capacity),
            workload,
            window_requests=window,
            obs=Observation.sidecars_only(learner=LearnerTelemetry()),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        requests=len(workload),
        windows=series.windows,
        plain_seconds=round(plain, 4),
        learner_seconds=round(observed, 4),
        learner_overhead_percent=round(100 * overhead, 2),
        learner_microseconds_per_window=round(per_window * 1e6, 1),
    )
    print(
        f"\nlearner telemetry: {series.windows} windows/replay, "
        f"{observed * 1e3:.1f}ms vs {plain * 1e3:.1f}ms plain LHR -> "
        f"{100 * overhead:+.1f}% ({per_window * 1e6:.0f}us/window)"
    )


def test_ledger_record_overhead_under_two_percent(workload, benchmark, tmp_path):
    """Persisting a RunRecord costs <2% of the sweep it records.

    The run ledger defaults to on, so its write path (series packing,
    uncompressed npz, manifest rename) rides every ``simulate`` /
    ``compare`` invocation — but it runs **once per invocation**, not per
    cell, so the honest denominator is what one ledgered invocation
    replays: the default ``repro compare`` policy grid.  This pins the
    budget that justified skipping npz compression.  Waive with
    ``REPRO_ASSERT_OBS_OVERHEAD=0``.
    """
    from repro.sim import run_comparison

    capacity = cache_bytes("cdn-a", 512)
    window = max(len(workload) // 64, 1)
    policies = ["lhr", "lru", "w-tinylfu"]  # the CLI's default grid
    config = {
        "trace": "cdn-a",
        "policies": policies,
        "capacities": [capacity],
        "window": window,
    }
    rounds = 3  # the sweep dominates wall time; 3 medians suffice
    replay_samples, record_samples = [], []
    for round_index in range(rounds):
        start = time.perf_counter()
        results = run_comparison(
            workload, policies, [capacity], window_requests=window
        )
        replay_samples.append(time.perf_counter() - start)
        # A fresh root per round keeps directory size out of the timing.
        ledger = RunLedger(tmp_path / f"ledger{round_index}")
        start = time.perf_counter()
        ledger.record(record_from_results("compare", config, results))
        record_samples.append(time.perf_counter() - start)
    result = results[0]
    replay = _median(replay_samples)
    recording = _median(record_samples)
    overhead_ratio = recording / replay

    benchmark.pedantic(
        lambda: RunLedger(tmp_path / "bench").record(
            record_from_results("compare", config, results)
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        requests=len(workload),
        windows=len(result.windows),
        replay_seconds=round(replay, 4),
        record_seconds=round(recording, 5),
        ledger_overhead_percent=round(100 * overhead_ratio, 3),
    )
    print(
        f"\nledger record: {recording * 1e3:.2f}ms vs {replay * 1e3:.1f}ms "
        f"windowed replay ({len(result.windows)} windows) -> "
        f"{100 * overhead_ratio:.3f}% overhead"
    )
    if os.environ.get("REPRO_ASSERT_OBS_OVERHEAD", "1") != "0":
        assert overhead_ratio < 0.02, (
            f"run-ledger persistence costs {100 * overhead_ratio:.2f}% of a "
            "windowed replay (>2%); the default-on write path has grown"
        )


#: Probes per policy when timing ``metadata_bytes()`` below.
PROBE_ITERS = 2_000


def test_metadata_probe_cost_is_flat(workload, benchmark):
    """The engine samples ``metadata_bytes()`` on a fixed request cadence,
    so the probe must not walk per-object state: LRU-K keeps its history
    slot count incrementally, the feature store its gap-slot total, and
    the GBM caches its tree walk per (re)fit.  This reports nanoseconds
    per probe on *populated* policies and asserts the probe stays far
    below one request's replay cost — a probe that silently went O(n)
    would dominate packed replay, where the probe is the only per-chunk
    Python work besides the kernel."""
    capacity = cache_bytes("cdn-a", 512)
    probed = {}
    for name in ("lru", "lru-4", "lhr"):
        policy = build_policy(name, capacity)
        simulate(policy, workload)
        start = time.perf_counter()
        for _ in range(PROBE_ITERS):
            policy.metadata_bytes()
        per_probe = (time.perf_counter() - start) / PROBE_ITERS
        probed[name] = per_probe
    benchmark.pedantic(
        lambda: build_policy("lru-4", capacity).metadata_bytes(),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {f"{name}_probe_nanoseconds": round(t * 1e9) for name, t in probed.items()}
    )
    print(
        "\nmetadata probes: "
        + ", ".join(f"{name} {t * 1e6:.2f}us" for name, t in probed.items())
    )
    if os.environ.get("REPRO_ASSERT_OBS_OVERHEAD", "1") != "0":
        # Generous bound: even LHR's probe (store + model + detector)
        # must stay under 50us — population-proportional walks measure
        # in the hundreds of microseconds at this trace scale.
        assert max(probed.values()) < 50e-6, (
            f"metadata_bytes() probe costs {max(probed.values()) * 1e6:.0f}us; "
            "a cache has degraded to walking per-object state"
        )
