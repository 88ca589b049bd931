"""Residency diagnostics on the decision tracer: admission ratio,
dead-on-arrival, eviction age and hits per residency, and tracing never
changing what a policy hits."""

import pytest

from repro.obs.trace import DecisionTracer
from repro.policies import make_policy
from repro.sim import build_policy, known_policies, simulate
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace

#: Trimmed learner settings (mirrors the parallel-sweep suite) so the
#: heavyweight policies train at this trace size.
POLICY_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


def req(obj_id, time, size=10):
    return Request(time=time, obj_id=obj_id, size=size)


def traced(policy):
    """``policy`` with a fresh tracer attached, and that tracer."""
    tracer = DecisionTracer()
    policy.attach_tracer(tracer)
    return policy, tracer


def run(name, capacity, stream):
    """The tracer of a ``name`` cache that served ``stream``."""
    policy, tracer = traced(make_policy(name, capacity))
    policy.process(stream)
    return tracer


class TestTransparency:
    def test_hit_miss_behaviour_unchanged(self):
        plain = make_policy("lru", 30)
        policy, tracer = traced(make_policy("lru", 30))
        stream = [req(i % 5, float(i)) for i in range(50)]
        for r in stream:
            assert plain.request(r) == policy.request(r)
        assert policy.object_hit_ratio == plain.object_hit_ratio
        assert tracer.hit_ratio == plain.object_hit_ratio

    def test_simulate_records_diagnostics(self):
        trace = irm_trace(1500, 80, mean_size=1 << 10, seed=21)
        capacity = int(0.1 * trace.unique_bytes())
        processed = run("lru", capacity, trace)
        simulated = DecisionTracer()
        simulate(make_policy("lru", capacity), trace, tracer=simulated)
        assert simulated.completed_residencies > 0
        assert simulated.residency() == processed.residency()


class TestDiagnostics:
    def test_eviction_age_recorded(self):
        tracer = run("lru", 20, [req(1, 0.0), req(2, 5.0), req(3, 12.0)])
        # 3's admission evicts 1 at age 12.
        assert tracer.completed_residencies == 1
        assert tracer.eviction_ages.mean == pytest.approx(12.0)

    def test_eviction_age_from_admission(self):
        # 1 is admitted at 0, hit at 1 and evicted by 3's admission at 3:
        # the age runs from admission, not from the last hit.
        tracer = run(
            "lru", 20, [req(1, 0.0), req(1, 1.0), req(2, 2.0), req(3, 3.0)]
        )
        assert tracer.completed_residencies == 1
        assert tracer.eviction_ages.mean == 3.0

    def test_hits_per_residency(self):
        tracer = run(
            "lru",
            20,
            [req(1, 0.0), req(1, 1.0), req(1, 2.0), req(2, 3.0), req(3, 4.0)],
        )
        # 3's admission evicts 1, which served 2 hits.
        assert tracer.hits_per_residency.mean == pytest.approx(2.0)
        assert tracer.dead_on_arrival == 0

    def test_dead_on_arrival(self):
        tracer = run("lru", 20, [req(1, 0.0), req(2, 1.0), req(3, 2.0)])
        # 3's admission evicts 1, which served zero hits.
        assert tracer.dead_on_arrival == 1
        assert tracer.dead_on_arrival_ratio == 1.0

    def test_admission_ratio_admit_all(self):
        tracer = run("lru", 1000, [req(i, float(i)) for i in range(10)])
        assert tracer.admission_ratio == 1.0

    def test_admission_ratio_with_filter(self):
        # All first sightings, which B-LRU never admits.
        tracer = run("b-lru", 1000, [req(i, float(i)) for i in range(10)])
        assert tracer.admission_ratio == 0.0

    def test_report_shape(self):
        trace = irm_trace(1500, 80, mean_size=1 << 10, seed=21)
        tracer = run("gdsf", int(0.1 * trace.unique_bytes()), trace)
        report = tracer.residency()
        assert tracer.summary()["residency"] == report
        assert 0.0 <= report["admission_ratio"] <= 1.0
        assert 0.0 <= report["dead_on_arrival_ratio"] <= 1.0
        assert report["mean_eviction_age_s"] >= 0.0
        assert report["p90_eviction_age_s"] >= 0.0
        assert report["dead_on_arrival"] <= report["completed_residencies"]

    def test_admission_filter_reduces_dead_on_arrival(self):
        """The point of admission policies, measured: B-LRU wastes fewer
        admissions than admit-all LRU on a one-hit-heavy workload."""
        from repro.traces import generate_production_trace

        trace = generate_production_trace("cdn-a", scale=0.005, seed=3)
        capacity = int(0.05 * trace.unique_bytes())
        lru = run("lru", capacity, trace)
        blru = run("b-lru", capacity, trace)
        assert blru.dead_on_arrival_ratio < lru.dead_on_arrival_ratio

    def test_works_with_lhr(self, production_trace, production_capacity):
        from repro.core import LhrCache

        policy, tracer = traced(LhrCache(production_capacity, seed=0))
        policy.process(production_trace)
        assert tracer.completed_residencies > 0
        assert 0.0 < policy.object_hit_ratio < 1.0
        assert tracer.hit_ratio == policy.object_hit_ratio


@pytest.fixture(scope="module")
def registry_trace():
    return irm_trace(
        600, 60, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=5
    )


@pytest.fixture(scope="module")
def registry_capacity(registry_trace):
    return max(int(0.2 * registry_trace.unique_bytes()), 1)


class TestEveryRegisteredPolicy:
    """Tracing is transparent across the full registry — classics,
    learned policies (seeded RNGs included) and LHR variants."""

    @pytest.mark.parametrize("name", known_policies())
    def test_wrapping_never_changes_hit_counts(
        self, name, registry_trace, registry_capacity
    ):
        kwargs = POLICY_KWARGS.get(name, {})
        plain = build_policy(name, registry_capacity, **kwargs)
        policy, tracer = traced(build_policy(name, registry_capacity, **kwargs))
        plain.process(registry_trace)
        policy.process(registry_trace)
        assert policy.hits == plain.hits == tracer.hits
        assert policy.misses == plain.misses == tracer.misses
        assert policy.object_hit_ratio == plain.object_hit_ratio
        assert policy.used_bytes == plain.used_bytes

    @pytest.mark.parametrize("name", known_policies())
    def test_diagnostics_well_formed(
        self, name, registry_trace, registry_capacity
    ):
        policy, tracer = traced(
            build_policy(
                name, registry_capacity, **POLICY_KWARGS.get(name, {})
            )
        )
        policy.process(registry_trace)
        report = tracer.residency()
        assert 0.0 <= report["admission_ratio"] <= 1.0
        assert 0.0 <= report["dead_on_arrival_ratio"] <= 1.0
        assert tracer.dead_on_arrival <= tracer.completed_residencies
        assert tracer.admitted_misses <= tracer.misses
        if tracer.completed_residencies:
            assert tracer.eviction_ages.count == tracer.completed_residencies
            assert tracer.eviction_ages.mean >= 0.0
            assert tracer.hits_per_residency.mean >= 0.0
