"""Trace-driven simulation engine.

``simulate`` runs one policy over one trace, collecting aggregate and
per-window metrics plus resource proxies (runtime, peak metadata).  The
engine owns nothing policy-specific: any :class:`CachePolicy` works,
including LHR and the prototype emulations.

The function is worker-safe: it holds no module-level mutable state and
touches nothing but its arguments, so :mod:`repro.sim.parallel` can call
it from forked or spawned processes.
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
) -> SimulationResult:
    """Run ``policy`` over ``trace``.

    Parameters
    ----------
    policy:
        A fresh policy instance (the engine does not reset state).
    trace:
        The request stream — a ``Trace`` or a columnar
        :class:`~repro.traces.packed.PackedTrace`.  Both replay through
        the same chunked loop; a ``Trace`` is packed first.  Which code
        runs per request — a native span kernel or ``request`` itself —
        depends only on the policy and on whether a tracer is attached,
        never on the trace's form or on ``obs``.
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
        emits one ``sim.window`` event per closed reporting window,
        re-exports ``runtime_seconds`` as the ``sim_replay_seconds``
        histogram, attaches the handle to the policy (so LHR's lifecycle
        events flow), and records aggregate request/hit counters.  The
        default :data:`~repro.obs.NULL_OBS` disables all of it.
    tracer:
        Optional :class:`~repro.obs.trace.DecisionTracer` attached to the
        policy for the replay — every request's admission verdict, its
        inputs and eviction victims are recorded, and the tracer's miss
        taxonomy covers the whole trace (warmup included).

    The loop walks the trace in chunks whose boundaries land exactly on
    every bookkeeping point — metadata probes after index ``i % interval
    == 0``, window rollovers every ``window_requests`` and the warmup
    edge — and hands each chunk to ``policy.replay_span`` in one call, so
    span-kernel policies pay Python dispatch per chunk, not per request.
    Each call gets the packed NumPy columns whole with the chunk's global
    ``[begin, end)``; the kernel turns only that slice into lists, so no
    whole-trace Python list outlives a chunk.
    All aggregate and window accounting is reconstructed from the
    policy's own monotone counters as deltas at those boundaries: every
    request adds its size to exactly one of ``hit_bytes``/``miss_bytes``,
    so byte and hit totals over any index range are counter differences.

    ``replay_span`` is the policy's native span kernel or the base
    walker, which calls ``request`` per request.  Attaching ``tracer``
    pins the walker over an inlined classic kernel
    (``CachePolicy._pin_span_kernel``), and LHR's kernel walks
    ``request`` too, so decision records always come from ``request``
    itself; ``obs`` never pins.  Everything the loop records costs one
    check per chunk, never per request: ``sim.window`` events at each
    window rollover while ``obs`` is enabled, the ``sim.replay``/
    ``sim.warmup``/``sim.window`` spans plus one ``sim.chunk`` span per
    ``replay_span`` call while ``obs.spans`` records, and the ``sim_*``
    registry metrics once at the end.
    """
    check_replay_args(len(trace), window_requests, warmup_requests)
    result = SimulationResult(
        policy=policy.name, trace=trace.name, capacity=policy.capacity
    )
    observing = obs.enabled
    spans = obs.spans
    spans_on = spans.enabled
    learner_on = obs.learner.enabled
    if observing or spans_on or learner_on:
        # Any live sink attaches: LHR's lifecycle events, its
        # window-close spans and the learner rows all flow through
        # ``policy.obs`` at window closes, which the native kernels and
        # the walker share, so attaching leaves the kernel engaged.
        policy.attach_observation(obs)
    if tracer is not None:
        policy.attach_tracer(tracer)
    packed = trace if isinstance(trace, PackedTrace) else PackedTrace.from_trace(trace)
    total = len(packed)
    obj_ids, sizes, times = packed.obj_ids, packed.sizes, packed.times
    replay_span = policy.replay_span
    interval = metadata_probe_interval
    warmup = warmup_requests
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
    # enter with non-zero totals).
    base_hits = policy.hits
    base_hit_bytes = policy.hit_bytes
    base_bytes = policy.hit_bytes + policy.miss_bytes
    window: WindowMetrics | None = None
    window_begin = 0
    win_hits = win_hit_bytes = win_bytes = win_evictions = 0
    start = time.perf_counter()
    peak_metadata = 0
    measured_from = 0
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
        if i < warmup < stop:
            stop = warmup
        if spans_on:
            chunk = spans.begin("sim.chunk", cat="sim", start=i, stop=stop)
            replay_span(obj_ids, sizes, times, i, stop)
            spans.end(chunk)
        else:
            replay_span(obj_ids, sizes, times, i, stop)
        # A chunk holds at most one probe index, and only as its last.
        if interval and (stop - 1) % interval == 0:
            metadata = policy.metadata_bytes()
            if metadata > peak_metadata:
                peak_metadata = metadata
        if window is not None:
            window.requests = stop - window_begin
            window.hits = policy.hits - win_hits
            window.hit_bytes = policy.hit_bytes - win_hit_bytes
            window.total_bytes = policy.hit_bytes + policy.miss_bytes - win_bytes
            window.evictions = policy.evictions - win_evictions
        if stop == warmup:
            measured_from = stop
            base_hits = policy.hits
            base_hit_bytes = policy.hit_bytes
            base_bytes = policy.hit_bytes + policy.miss_bytes
            if warmup_handle is not None:
                spans.end(warmup_handle)
                warmup_handle = None
        i = stop
    result.runtime_seconds = time.perf_counter() - start
    result.peak_metadata_bytes = max(peak_metadata, policy.metadata_bytes())
    result.evictions = policy.evictions
    result.admissions = policy.admissions
    result.requests = total - measured_from
    result.hits = policy.hits - base_hits
    result.hit_bytes = policy.hit_bytes - base_hit_bytes
    result.total_bytes = policy.hit_bytes + policy.miss_bytes - base_bytes
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


def check_replay_args(
    trace_length: int, window_requests: int = 0, warmup_requests: int = 0
) -> None:
    """Reject window and warmup settings no replay of a ``trace_length``
    request trace can honour.

    ``simulate`` calls this per replay and ``run_sweep`` once before any
    cell starts, so a bad argument raises one ``ValueError`` up front
    rather than failing every cell.  A warmup at or beyond the trace
    length would silently produce empty aggregates.
    """
    if warmup_requests < 0:
        raise ValueError("warmup_requests must be non-negative")
    if window_requests < 0:
        raise ValueError("window_requests must be non-negative")
    if warmup_requests and warmup_requests >= trace_length:
        raise ValueError(
            f"warmup_requests ({warmup_requests}) must be smaller than the "
            f"trace ({trace_length} requests); nothing would be measured"
        )


def _emit_window(obs: Observation, window: WindowMetrics) -> None:
    obs.emit(
        "sim.window",
        index=window.index,
        requests=window.requests,
        hits=window.hits,
        hit_bytes=window.hit_bytes,
        total_bytes=window.total_bytes,
        hit_ratio=round(window.hit_ratio, 6),
        evictions=window.evictions,
    )
