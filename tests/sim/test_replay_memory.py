"""Replay memory: a replay holds the trace's columns and the cache's live
state, not a Python list of the whole trace or per-content containers
sized for more than they keep."""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.lhr import LhrCache
from repro.policies.classic import LruCache, LruKCache
from repro.sim.engine import simulate
from repro.traces import generate_production_trace
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace


def _traced(build):
    """``(result, retained bytes, peak bytes)`` of calling ``build``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = build()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def test_replay_keeps_no_whole_trace_list():
    packed = PackedTrace.from_trace(
        irm_trace(100_000, 5_000, mean_size=1 << 14, seed=3)
    )
    _, list_bytes, _ = _traced(
        lambda: (packed.obj_ids.tolist(), packed.sizes.tolist(), packed.times.tolist())
    )
    capacity = int(packed.sizes[:200].sum())
    result, _, peak = _traced(lambda: simulate(LruCache(capacity), packed))
    assert result.requests == len(packed)
    assert not any(
        isinstance(value, (list, tuple)) for value in vars(packed).values()
    )
    assert peak < list_bytes / 4


def test_lru_k_history_is_compact():
    """LRU-2's history of contents seen once: each keeps one time, which
    a tuple holds in far fewer bytes than a ``deque(maxlen=2)``."""
    count = 20_000
    packed = PackedTrace.from_arrays(
        np.arange(count, dtype=np.float64),
        np.arange(count),
        np.ones(count, dtype=np.int64),
    )
    policy = LruKCache(16, k=2)
    _, retained, _ = _traced(lambda: simulate(policy, packed))
    assert len(policy._history) == count
    assert retained / count < 300


def test_lhr_replay_keeps_no_window_history():
    """HRO keeps its last two closed windows, not one per close, so an
    LHR replay through twice as many windows retains about as much
    (keeping every window costs about 20 KB per window here)."""
    trace = generate_production_trace("cdn-c", scale=0.01, seed=5)
    packed = PackedTrace.from_trace(trace)

    def part(begin, end):
        return PackedTrace.from_arrays(
            packed.times[begin:end], packed.obj_ids[begin:end], packed.sizes[begin:end]
        )

    half = len(packed) // 2
    first, second = part(0, half), part(half, len(packed))
    capacity = int(0.01 * trace.unique_bytes())
    # A short replay first loads what a replay imports, outside the count.
    simulate(LhrCache(capacity, min_window_requests=64, seed=0), part(0, 1000))
    policy = LhrCache(capacity, min_window_requests=64, seed=0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        simulate(policy, first)
        at_half = tracemalloc.get_traced_memory()[0] - before
        windows_at_half = policy.windows_processed
        simulate(policy, second)
        at_end = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert windows_at_half >= 20
    assert policy.windows_processed >= 2 * windows_at_half - 2
    assert policy.windows_processed >= 40
    assert policy.hro.windows_closed == policy.windows_processed
    assert len(policy.hro.windows) == 2
    assert at_end < 1.25 * at_half
