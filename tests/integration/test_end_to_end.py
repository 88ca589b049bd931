"""End-to-end integration: the paper's experiment pipelines at tiny scale.

These tests wire several subsystems together the way the benchmarks do —
trace generation -> policies -> bounds -> simulation -> prototype — and
assert cross-module consistency rather than per-module behaviour.
"""

import pytest

from repro.bounds import belady_size, infinite_cap, pfoo_upper
from repro.core import DLhrCache, LhrCache, hro_bound
from repro.proto import AtsServer, make_ats_baseline, run_prototype
from repro.sim import best_policy, build_policy, measure_latency, run_comparison, simulate
from repro.traces import generate_production_trace, syn_two_trace
from repro.traces.transform import split


@pytest.fixture(scope="module")
def scenario():
    trace = generate_production_trace("cdn-b", scale=0.005, seed=77)
    capacity = int(0.06 * trace.unique_bytes())
    return trace, capacity


class TestFigure2Pipeline:
    """The full bound-vs-policy comparison at miniature scale."""

    def test_hierarchy(self, scenario):
        trace, capacity = scenario
        results = run_comparison(
            trace,
            ["lhr", "lru", "lfu-da", "adaptsize"],
            [capacity],
        )
        lhr = next(r for r in results if r.policy == "lhr")
        sota = best_policy([r for r in results if r.policy != "lhr"])
        hro = hro_bound(trace, capacity, min_window_requests=512)
        offline = belady_size(trace.requests, capacity)
        relaxed = pfoo_upper(trace.requests, capacity)
        ceiling = infinite_cap(trace.requests)
        # The full chain of the paper's Figure 2 relationships.
        assert lhr.object_hit_ratio >= sota.object_hit_ratio - 0.03
        assert hro.hit_ratio >= lhr.object_hit_ratio - 0.03
        assert relaxed.hit_ratio >= offline.hit_ratio - 0.02
        assert ceiling.hit_ratio >= max(relaxed.hit_ratio, hro.hit_ratio) - 1e-9


class TestSimulatorConsistency:
    def test_engine_matches_policy_state(self, scenario):
        trace, capacity = scenario
        policy = build_policy("w-tinylfu", capacity)
        result = simulate(policy, trace, window_requests=500)
        assert result.hits == policy.hits
        assert result.total_bytes == trace.total_bytes()
        assert sum(w.hits for w in result.windows) == result.hits
        assert result.wan_traffic_bytes == policy.miss_bytes

    def test_latency_consistent_with_hit_ratio(self, scenario):
        trace, capacity = scenario
        fast = measure_latency(build_policy("lhr", capacity), trace)
        slow = measure_latency(build_policy("no-cache", capacity), trace)
        assert fast.object_hit_ratio > slow.object_hit_ratio
        assert fast.mean_latency_ms < slow.mean_latency_ms
        assert fast.throughput_gbps > slow.throughput_gbps


class TestLhrInternalsConsistency:
    def test_lhr_window_count_matches_hro(self, scenario):
        trace, capacity = scenario
        cache = LhrCache(capacity, seed=0)
        cache.process(trace)
        assert cache.windows_processed == cache.hro.windows_closed
        assert cache.trainings <= cache.windows_processed
        assert len(cache.estimator.history) >= 1

    def test_d_lhr_never_moves_threshold(self, scenario):
        trace, capacity = scenario
        cache = DLhrCache(capacity, seed=0)
        cache.process(trace)
        assert set(cache.estimator.history) == {0.5}

    def test_probability_vector_subset_of_cache(self, scenario):
        trace, capacity = scenario
        cache = LhrCache(capacity, seed=0)
        cache.process(trace)
        cached = set(cache.cached_objects())
        stored = {
            obj_id
            for obj_id in trace.unique_contents()
            if cache.admission_probability(obj_id) is not None
        }
        assert stored == cached


class TestPrototypePipeline:
    def test_prototype_consistent_with_simulator(self, scenario):
        """The ATS emulation's hit probability must track a bare policy
        simulation of the same algorithm and capacity (the prototype adds
        freshness/revalidation but those rarely change hit/miss)."""
        trace, capacity = scenario
        report = run_prototype(make_ats_baseline(capacity), trace, "ats")
        bare = simulate(build_policy("lru", capacity), trace)
        assert report.content_hit_percent / 100 == pytest.approx(
            bare.object_hit_ratio, abs=0.03
        )

    def test_lhr_prototype_traffic_at_most_total(self, scenario):
        trace, capacity = scenario
        report = run_prototype(AtsServer(LhrCache(capacity, seed=0)), trace, "lhr")
        total_gbps = trace.total_bytes() * 8 / max(trace.duration, 1e-9) / 1e9
        assert 0 < report.traffic_gbps <= total_gbps


class TestTrainTestProtocol:
    def test_split_then_evaluate(self, scenario):
        """A standard ML-systems protocol: warm the policy on the head of
        the trace, measure on the tail only."""
        trace, capacity = scenario
        head, tail = split(trace, 0.5)
        cache = LhrCache(capacity, seed=0)
        cache.process(head)
        warm_hits_before = cache.hits
        result = simulate(cache, tail)
        assert result.requests == len(tail)
        assert cache.hits == warm_hits_before + result.hits


class TestAdaptivity:
    def test_lhr_tracks_alpha_cycle(self):
        trace = syn_two_trace(
            num_requests=12_000,
            num_contents=400,
            requests_per_state=3_000,
            seed=9,
        )
        capacity = int(0.1 * trace.unique_bytes())
        lhr = simulate(build_policy("lhr", capacity, seed=0), trace)
        lru = simulate(build_policy("lru", capacity), trace)
        assert lhr.object_hit_ratio > lru.object_hit_ratio
