"""Worker-side replay, output checks and failure accounting."""

import itertools

from benchmarks.suite import catalog, workloads
from benchmarks.suite.workloads import build_inputs, run_worker
from repro.sim import engine

TINY_POOL = catalog.Workload(
    "tiny-pool", "cdn-c", 0.002, (64,), ("lru", "lhr"), {"lhr": {"seed": 0}}, traces=2
)


def _run(workload, repeats=2):
    inputs = build_inputs(workload, seed=5)
    return inputs, run_worker(
        workload, inputs, seed=5, seconds=None, repeats=repeats, trace=False, trace_out=None
    )


def test_pooled_traces_are_distinct_and_all_replayed():
    inputs, payload = _run(TINY_POOL)
    assert TINY_POOL.trace_seeds(5) == [5000, 5001]
    assert inputs.traces[0].obj_ids.tolist() != inputs.traces[1].obj_ids.tolist()
    assert payload["ops_failed"] == 0, payload["failures"]
    per_trace = len(TINY_POOL.policies)
    # warm-up replays the first trace only; each repeat replays both
    assert payload["ops_attempted"] == per_trace + 2 * 2 * per_trace
    assert payload["requests"] == per_trace * inputs.requests
    assert len(payload["repeats"]) == 2
    assert 0 < payload["hits"] < payload["counted_requests"] == payload["requests"]


def test_exceptions_count_as_failed_operations():
    bad = catalog.Workload("bad", "cdn-c", 0.002, (64,), ("lru", "no-such-policy"))
    _, payload = _run(bad)
    # the bad cell fails in the warm-up and in both repeats
    assert payload["ops_failed"] == 3
    assert all("raised ValueError" in f for f in payload["failures"])


def test_broken_invariants_count_as_failed_operations(monkeypatch):
    real = engine.simulate

    def leaky(policy, trace, **kwargs):
        result = real(policy, trace, **kwargs)
        policy._used += 1  # used_bytes no longer equals the cached bytes
        return result

    monkeypatch.setattr(engine, "simulate", leaky)
    lru = catalog.Workload("lru", "cdn-c", 0.002, (64,), ("lru",))
    _, payload = _run(lru)
    assert payload["ops_failed"] == payload["ops_attempted"] == 3
    assert "0 <= used == cached <= capacity" in payload["failures"][0]


def test_counters_that_change_between_repeats_are_failures(monkeypatch):
    real = engine.simulate
    calls = itertools.count()

    def drifting(policy, trace, **kwargs):
        result = real(policy, trace, **kwargs)
        if next(calls) == 2:
            result.evictions += 1
            result.admissions += 1
        return result

    monkeypatch.setattr(engine, "simulate", drifting)
    lru = catalog.Workload("lru", "cdn-c", 0.002, (64,), ("lru",))
    _, payload = _run(lru)
    assert payload["ops_failed"] == 1
    assert "differ from the first replay" in payload["failures"][0]


def test_time_budget_makes_at_least_the_minimum_repeats():
    lru = catalog.Workload("lru", "cdn-c", 0.002, (64,), ("lru",))
    inputs = build_inputs(lru, seed=1)
    payload = run_worker(
        lru, inputs, seed=1, seconds=0.0, repeats=None, trace=False, trace_out=None
    )
    assert len(payload["repeats"]) == workloads.MIN_REPEATS
