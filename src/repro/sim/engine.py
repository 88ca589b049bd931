"""Trace-driven simulation engine.

``simulate`` runs one policy over one trace, collecting aggregate and
per-window metrics plus resource proxies (runtime, peak metadata).  The
engine owns nothing policy-specific: any :class:`CachePolicy` works,
including LHR and the prototype emulations.

The function is worker-safe: it holds no module-level mutable state and
touches nothing but its arguments, so :mod:`repro.sim.parallel` can call
it from forked or spawned processes.  The replay loop itself lives in
``replay_into`` so callers that manage their own ``SimulationResult``
(resumable runs, shared-result accumulation) can reuse it.
"""

from __future__ import annotations

import time

from repro.obs import NULL_OBS, Observation
from repro.obs.trace import DecisionTracer
from repro.policies.base import CachePolicy
from repro.sim.metrics import SimulationResult, WindowMetrics
from repro.traces.packed import PackedTrace
from repro.traces.request import Trace


def simulate(
    policy: CachePolicy,
    trace: Trace | PackedTrace,
    window_requests: int = 0,
    warmup_requests: int = 0,
    metadata_probe_interval: int = 1000,
    obs: Observation = NULL_OBS,
    tracer: DecisionTracer | None = None,
    heartbeat=None,
    heartbeat_interval: int = 0,
) -> SimulationResult:
    """Run ``policy`` over ``trace``.

    Parameters
    ----------
    policy:
        A fresh policy instance (the engine does not reset state).
    trace:
        The request stream — a ``Trace`` or a columnar
        :class:`~repro.traces.packed.PackedTrace`.  Both replay through
        the same chunked loop (``replay_into``); a ``Trace`` is packed
        first.  Which code runs per request — a native span kernel or
        ``request`` itself — depends only on the policy and on whether a
        tracer or an enabled observation is attached, never on the
        trace's form.
    window_requests:
        If > 0, collect per-window hit series every this many requests
        (the Figure 7 time series).
    warmup_requests:
        Requests processed but excluded from aggregate metrics (classic
        cache-simulation warmup; the per-window series still covers them).
        Must leave at least one measured request: a warmup at or beyond
        the trace length would silently produce empty aggregates, so it
        raises ``ValueError`` instead.
    metadata_probe_interval:
        How often (in requests) to sample ``policy.metadata_bytes()`` for
        the peak-memory statistic.
    obs:
        Observation handle (:mod:`repro.obs`).  When enabled, the engine
        emits one ``sim.window`` event per closed reporting window, times
        the replay into the ``sim_replay_seconds`` histogram, attaches
        the handle to the policy (so LHR's lifecycle events flow), and
        records aggregate request/hit counters.  The default
        :data:`~repro.obs.NULL_OBS` disables all of it.
    tracer:
        Optional :class:`~repro.obs.trace.DecisionTracer` attached to the
        policy for the replay — every request's admission verdict, its
        inputs and eviction victims are recorded, and the tracer's miss
        taxonomy covers the whole trace (warmup included).
    heartbeat / heartbeat_interval:
        When ``heartbeat_interval > 0``, call ``heartbeat(requests_done)``
        every that many replayed requests — the hook live progress rides
        on (sweep worker heartbeats, the CLI's ``--serve`` progress).
        Disabled (interval 0) the loop carries only a falsy-int check
        per chunk, like the window rollover guard.
    """
    if warmup_requests < 0:
        raise ValueError("warmup_requests must be non-negative")
    if window_requests < 0:
        raise ValueError("window_requests must be non-negative")
    if heartbeat_interval < 0:
        raise ValueError("heartbeat_interval must be non-negative")
    if heartbeat_interval and heartbeat is None:
        raise ValueError("heartbeat_interval set without a heartbeat callable")
    if warmup_requests and warmup_requests >= len(trace):
        raise ValueError(
            f"warmup_requests ({warmup_requests}) must be smaller than the "
            f"trace ({len(trace)} requests); nothing would be measured"
        )
    result = SimulationResult(
        policy=policy.name, trace=trace.name, capacity=policy.capacity
    )
    replay_into(
        policy,
        trace,
        result,
        window_requests=window_requests,
        warmup_requests=warmup_requests,
        metadata_probe_interval=metadata_probe_interval,
        obs=obs,
        tracer=tracer,
        heartbeat=heartbeat,
        heartbeat_interval=heartbeat_interval,
    )
    return result


def _emit_window(obs: Observation, window: WindowMetrics) -> None:
    obs.emit(
        "sim.window",
        index=window.index,
        requests=window.requests,
        hits=window.hits,
        hit_bytes=window.hit_bytes,
        total_bytes=window.total_bytes,
        hit_ratio=round(window.hit_ratio, 6),
    )


def replay_into(
    policy: CachePolicy,
    trace: Trace | PackedTrace,
    result: SimulationResult,
    window_requests: int = 0,
    warmup_requests: int = 0,
    metadata_probe_interval: int = 1000,
    obs: Observation = NULL_OBS,
    tracer: DecisionTracer | None = None,
    heartbeat=None,
    heartbeat_interval: int = 0,
) -> SimulationResult:
    """The replay loop: feed ``trace`` through ``policy`` and accumulate
    into ``result``.

    Assumes arguments were validated by the caller (``simulate`` does).
    A ``Trace`` is packed first.  The loop walks the packed columns in
    chunks whose boundaries land exactly on every bookkeeping point —
    metadata probes after index ``i % interval == 0``, window rollovers
    every ``window_requests``, heartbeats at ``(i + 1) %
    heartbeat_interval == 0`` and the warmup edge — and hands each chunk
    to ``policy.replay_span`` in one call, so span-kernel policies pay
    Python dispatch per chunk, not per request.  All aggregate and
    window accounting is reconstructed from the policy's own monotone
    counters as deltas at those boundaries: every request adds its size
    to exactly one of ``hit_bytes``/``miss_bytes``, so byte and hit
    totals over any index range are counter differences.

    ``replay_span`` is the policy's native span kernel or the base
    walker, which calls ``request`` per request.  Attaching ``tracer``
    or an enabled ``obs`` pins the walker (``CachePolicy._pin_span_kernel``),
    so decision records and policy events come from ``request`` itself.
    Everything else the loop records costs one check per chunk, never
    per request: ``sim.window`` events at each window rollover while
    ``obs`` is enabled, the ``sim.replay``/``sim.warmup``/``sim.window``
    spans plus one ``sim.chunk`` span per ``replay_span`` call while
    ``obs.spans`` records, and the ``sim_*`` registry metrics once at the
    end.
    """
    observing = obs.enabled
    spans = obs.spans
    spans_on = spans.enabled
    learner_on = obs.learner.enabled
    if observing or spans_on or learner_on:
        # A sidecars-only handle (spans and/or learner telemetry) still
        # attaches: LHR's window-close spans flow through
        # ``policy.obs.spans`` and the learner sink collects at window
        # close via ``policy.obs.learner``.  Its ``enabled`` stays
        # False, so native kernels are unaffected.
        policy.attach_observation(obs)
    if tracer is not None:
        policy.attach_tracer(tracer)
    packed = trace if isinstance(trace, PackedTrace) else PackedTrace.from_trace(trace)
    obj_ids, sizes, times = packed.scalar_columns()
    total = len(obj_ids)
    replay_span = policy.replay_span
    interval = metadata_probe_interval
    warmup = min(warmup_requests, total)
    replay_handle = warmup_handle = window_handle = None
    if spans_on:
        replay_handle = spans.begin(
            "sim.replay",
            cat="sim",
            policy=policy.name,
            trace=packed.name,
            requests=total,
            packed=True,
        )
        if warmup:
            warmup_handle = spans.begin("sim.warmup", cat="sim", requests=warmup)
    # Measured-aggregate base: counters at the warmup edge (policies may
    # enter with non-zero totals; resumable replays accumulate).
    base_hits = policy.hits
    base_hit_bytes = policy.hit_bytes
    base_bytes = policy.hit_bytes + policy.miss_bytes
    window: WindowMetrics | None = None
    window_begin = 0
    win_hits = win_hit_bytes = win_bytes = win_evictions = 0
    start = time.perf_counter()
    peak_metadata = 0
    i = 0
    while i < total:
        stop = total
        if interval:
            aligned = ((i + interval - 1) // interval) * interval + 1
            if aligned < stop:
                stop = aligned
        if window_requests:
            if i % window_requests == 0:
                if window is not None and observing:
                    _emit_window(obs, window)
                if spans_on:
                    if window_handle is not None:
                        spans.end(window_handle)
                    window_handle = spans.begin(
                        "sim.window", cat="sim", index=len(result.windows)
                    )
                window = WindowMetrics(index=len(result.windows))
                result.windows.append(window)
                window_begin = i
                win_hits = policy.hits
                win_hit_bytes = policy.hit_bytes
                win_bytes = policy.hit_bytes + policy.miss_bytes
                win_evictions = policy.evictions
            boundary = (i // window_requests + 1) * window_requests
            if boundary < stop:
                stop = boundary
        if heartbeat_interval:
            boundary = (i // heartbeat_interval + 1) * heartbeat_interval
            if boundary < stop:
                stop = boundary
        if i < warmup < stop:
            stop = warmup
        if spans_on:
            chunk = spans.begin("sim.chunk", cat="sim", start=i, stop=stop)
            replay_span(obj_ids, sizes, times, i, stop)
            spans.end(chunk)
        else:
            replay_span(obj_ids, sizes, times, i, stop)
        if window is not None:
            window.requests = stop - window_begin
            window.hits = policy.hits - win_hits
            window.hit_bytes = policy.hit_bytes - win_hit_bytes
            window.total_bytes = policy.hit_bytes + policy.miss_bytes - win_bytes
            window.evictions = policy.evictions - win_evictions
        if stop == warmup:
            base_hits = policy.hits
            base_hit_bytes = policy.hit_bytes
            base_bytes = policy.hit_bytes + policy.miss_bytes
            if warmup_handle is not None:
                spans.end(warmup_handle)
                warmup_handle = None
        if interval and (stop - 1) % interval == 0:
            metadata = policy.metadata_bytes()
            if metadata > peak_metadata:
                peak_metadata = metadata
        if heartbeat_interval and stop % heartbeat_interval == 0:
            heartbeat(stop)
        i = stop
    result.runtime_seconds = time.perf_counter() - start
    result.peak_metadata_bytes = max(peak_metadata, policy.metadata_bytes())
    result.evictions = policy.evictions
    result.admissions = policy.admissions
    result.requests += total - warmup
    result.hits += policy.hits - base_hits
    result.hit_bytes += policy.hit_bytes - base_hit_bytes
    result.total_bytes += policy.hit_bytes + policy.miss_bytes - base_bytes
    if spans_on:
        if window_handle is not None:
            spans.end(window_handle)
        if warmup_handle is not None:
            spans.end(warmup_handle)
        spans.end(replay_handle, requests=result.requests, hits=result.hits)
    if tracer is not None:
        result.decision_trace = tracer
    if observing:
        if window is not None:
            _emit_window(obs, window)
        registry = obs.registry
        registry.histogram(
            "sim_replay_seconds", help="wall-clock seconds per replay loop"
        ).observe(result.runtime_seconds)
        registry.counter(
            "sim_requests_total", help="measured (post-warmup) requests replayed"
        ).inc(result.requests)
        registry.counter("sim_hits_total", help="measured cache hits").inc(
            result.hits
        )
        registry.counter("sim_evictions_total", help="evictions performed").inc(
            result.evictions
        )
        registry.counter("sim_admissions_total", help="objects admitted").inc(
            result.admissions
        )
        registry.gauge(
            "sim_peak_metadata_bytes", help="peak sampled policy metadata"
        ).max(result.peak_metadata_bytes)
    if learner_on:
        # Stamp the per-window learner series onto the result so sweeps
        # carry it across the worker->driver pipe like decision traces.
        result.learner = obs.learner.series(policy.name, policy.capacity)
    return result
