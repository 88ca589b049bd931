"""InstrumentedPolicy: lifetime and admission diagnostics."""

import pytest

from repro.policies import make_policy
from repro.sim import build_policy, known_policies, simulate
from repro.sim.instrumentation import InstrumentedPolicy
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


class TestTransparency:
    def test_hit_miss_behaviour_unchanged(self):
        plain = make_policy("lru", 30)
        wrapped = InstrumentedPolicy(make_policy("lru", 30))
        stream = [req(i % 5, float(i)) for i in range(50)]
        for r in stream:
            assert plain.request(r) == wrapped.request(r)
        assert wrapped.object_hit_ratio == plain.object_hit_ratio

    def test_simulate_records_diagnostics(self):
        trace = irm_trace(1500, 80, mean_size=1 << 10, seed=21)
        capacity = int(0.1 * trace.unique_bytes())
        processed = InstrumentedPolicy(make_policy("lru", capacity))
        processed.process(trace)
        simulated = InstrumentedPolicy(make_policy("lru", capacity))
        simulate(simulated, trace)
        assert simulated.completed_residencies > 0
        assert simulated.report() == processed.report()

    def test_attribute_passthrough(self):
        wrapped = InstrumentedPolicy(make_policy("lru", 100))
        assert wrapped.capacity == 100
        wrapped.request(req(1, 0.0))
        assert wrapped.contains(1)
        assert wrapped.used_bytes == 10


class TestDiagnostics:
    def test_eviction_age_recorded(self):
        wrapped = InstrumentedPolicy(make_policy("lru", 20))
        wrapped.request(req(1, 0.0))
        wrapped.request(req(2, 5.0))
        wrapped.request(req(3, 12.0))  # evicts 1 at age 12
        assert wrapped.completed_residencies == 1
        assert wrapped.eviction_ages.mean == pytest.approx(12.0)

    def test_hits_per_residency(self):
        wrapped = InstrumentedPolicy(make_policy("lru", 20))
        wrapped.request(req(1, 0.0))
        wrapped.request(req(1, 1.0))
        wrapped.request(req(1, 2.0))
        wrapped.request(req(2, 3.0))
        wrapped.request(req(3, 4.0))  # evicts 1 (served 2 hits)
        assert wrapped.hits_per_residency.mean == pytest.approx(2.0)
        assert wrapped.dead_on_arrival == 0

    def test_dead_on_arrival(self):
        wrapped = InstrumentedPolicy(make_policy("lru", 20))
        wrapped.request(req(1, 0.0))
        wrapped.request(req(2, 1.0))
        wrapped.request(req(3, 2.0))  # evicts 1: zero hits
        assert wrapped.dead_on_arrival == 1
        assert wrapped.dead_on_arrival_ratio == 1.0

    def test_admission_ratio_admit_all(self):
        wrapped = InstrumentedPolicy(make_policy("lru", 1000))
        for i in range(10):
            wrapped.request(req(i, float(i)))
        assert wrapped.admission_ratio == 1.0

    def test_admission_ratio_with_filter(self):
        wrapped = InstrumentedPolicy(make_policy("b-lru", 1000))
        for i in range(10):
            wrapped.request(req(i, float(i)))  # all first sightings
        assert wrapped.admission_ratio == 0.0

    def test_report_shape(self):
        trace = irm_trace(1500, 80, mean_size=1 << 10, seed=21)
        wrapped = InstrumentedPolicy(
            make_policy("gdsf", int(0.1 * trace.unique_bytes()))
        )
        wrapped.process(trace)
        report = wrapped.report()
        assert 0.0 <= report["admission_ratio"] <= 1.0
        assert 0.0 <= report["dead_on_arrival_ratio"] <= 1.0
        assert report["mean_eviction_age_s"] >= 0.0

    def test_admission_filter_reduces_dead_on_arrival(self):
        """The point of admission policies, measured: B-LRU wastes fewer
        admissions than admit-all LRU on a one-hit-heavy workload."""
        from repro.traces import generate_production_trace

        trace = generate_production_trace("cdn-a", scale=0.005, seed=3)
        capacity = int(0.05 * trace.unique_bytes())
        lru = InstrumentedPolicy(make_policy("lru", capacity))
        blru = InstrumentedPolicy(make_policy("b-lru", capacity))
        lru.process(trace)
        blru.process(trace)
        assert blru.dead_on_arrival_ratio < lru.dead_on_arrival_ratio

    def test_works_with_lhr(self, production_trace, production_capacity):
        from repro.core import LhrCache

        wrapped = InstrumentedPolicy(LhrCache(production_capacity, seed=0))
        wrapped.process(production_trace)
        assert wrapped.completed_residencies > 0
        assert 0.0 < wrapped.object_hit_ratio < 1.0


@pytest.fixture(scope="module")
def registry_trace():
    return irm_trace(
        600, 60, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=5
    )


@pytest.fixture(scope="module")
def registry_capacity(registry_trace):
    return max(int(0.2 * registry_trace.unique_bytes()), 1)


class TestEveryRegisteredPolicy:
    """The wrapper's transparency guarantee holds for the full registry —
    classics, learned policies (seeded RNGs included) and LHR variants."""

    @pytest.mark.parametrize("name", known_policies())
    def test_wrapping_never_changes_hit_counts(
        self, name, registry_trace, registry_capacity
    ):
        kwargs = POLICY_KWARGS.get(name, {})
        plain = build_policy(name, registry_capacity, **kwargs)
        wrapped = InstrumentedPolicy(
            build_policy(name, registry_capacity, **kwargs)
        )
        plain.process(registry_trace)
        wrapped.process(registry_trace)
        assert wrapped.hits == plain.hits
        assert wrapped.misses == plain.misses
        assert wrapped.object_hit_ratio == plain.object_hit_ratio
        assert wrapped.used_bytes == plain.used_bytes

    @pytest.mark.parametrize("name", known_policies())
    def test_diagnostics_well_formed(
        self, name, registry_trace, registry_capacity
    ):
        wrapped = InstrumentedPolicy(
            build_policy(
                name, registry_capacity, **POLICY_KWARGS.get(name, {})
            )
        )
        wrapped.process(registry_trace)
        report = wrapped.report()
        assert 0.0 <= report["admission_ratio"] <= 1.0
        assert 0.0 <= report["dead_on_arrival_ratio"] <= 1.0
        assert wrapped.dead_on_arrival <= wrapped.completed_residencies
        if wrapped.completed_residencies:
            assert wrapped.eviction_ages.count == wrapped.completed_residencies
            assert wrapped.eviction_ages.mean >= 0.0
            assert wrapped.hits_per_residency.mean >= 0.0
