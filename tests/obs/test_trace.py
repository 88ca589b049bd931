"""Decision tracer: recording modes, the miss-taxonomy invariant, victim
attribution, and the zero-cost untraced dispatch."""

import pickle

import pytest

from repro.obs import DecisionTracer, MissTaxonomy, TraceConfig
from repro.obs.trace import (
    MISS_ADMISSION_REJECTED,
    MISS_COLD,
    MISS_EVICTED_EARLY,
    MISS_ONE_HIT_WONDER,
)
from repro.policies import make_policy
from repro.policies.base import CachePolicy
from repro.sim import build_policy, known_policies, simulate
from repro.sim.hierarchy import TieredCache
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace


def _requests(spec):
    """Build requests from ``(obj_id, size)`` pairs."""
    return [
        Request(time=float(i), obj_id=obj_id, size=size, index=i)
        for i, (obj_id, size) in enumerate(spec)
    ]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="buffer"):
            TraceConfig(buffer=0)
        with pytest.raises(ValueError, match="sample_every"):
            TraceConfig(sample_every=0)
        with pytest.raises(ValueError, match="buffer"):
            DecisionTracer(buffer=-1)
        with pytest.raises(ValueError, match="sample_every"):
            DecisionTracer(sample_every=0)

    def test_build_and_pickle(self):
        config = TraceConfig(buffer=16, sample_every=3)
        tracer = pickle.loads(pickle.dumps(config)).build()
        assert tracer.buffer == 16
        assert tracer.sample_every == 3


class TestClassification:
    def test_hand_built_taxonomy(self):
        # Cache of 2 x 100-byte slots under LRU: object 3's admission
        # evicts 1, so 1's return at index 4 is evicted_early attributed
        # to 3.  Contents 2, 3 and 9 are requested exactly once — one-hit
        # wonders — leaving 1's first request as the only true cold miss.
        policy = make_policy("lru", 200)
        tracer = DecisionTracer()
        policy.attach_tracer(tracer)
        policy.process(_requests([
            (1, 100), (2, 100), (3, 100), (9, 100), (1, 100), (1, 100),
        ]))
        tax = tracer.taxonomy()
        assert tax.total == policy.misses == 5
        assert tax.cold == 1  # content 1 (re-referenced later)
        assert tax.one_hit_wonder == 3  # 2, 3, 9
        assert tax.evicted_early == 1  # 1's return at index 4
        assert tracer.evictor_counts[3] == 1  # 3's admission displaced 1
        assert tracer.records[4].miss_class == MISS_EVICTED_EARLY

    def test_rejection_class_and_threshold_count(self):
        # An object bigger than the cache is never admitted; its re-miss
        # is admission_rejected.
        policy = make_policy("lru", 100)
        tracer = DecisionTracer()
        policy.attach_tracer(tracer)
        policy.process(_requests([(7, 500), (7, 500)]))
        tax = tracer.taxonomy()
        assert tax.counts() == {
            MISS_COLD: 1,
            MISS_ONE_HIT_WONDER: 0,
            MISS_ADMISSION_REJECTED: 1,
            MISS_EVICTED_EARLY: 0,
        }
        # No probability/threshold inputs on LRU, so none below delta.
        assert tax.rejected_below_threshold == 0

    def test_class_of_resolves_one_hit_wonders(self):
        policy = make_policy("lru", 1000)
        tracer = DecisionTracer()
        policy.attach_tracer(tracer)
        policy.process(_requests([(1, 10), (2, 10), (1, 10)]))
        first, lonely = tracer.records[0], tracer.records[1]
        assert first.miss_class == lonely.miss_class == MISS_COLD
        assert tracer.class_of(first) == MISS_COLD
        assert tracer.class_of(lonely) == MISS_ONE_HIT_WONDER

    @pytest.mark.parametrize("name", ["lru", "lhr", "s4lru", "gdsf"])
    def test_taxonomy_sums_to_misses(self, name):
        trace = irm_trace(3000, 150, seed=5)
        policy = build_policy(name, int(0.05 * trace.unique_bytes()))
        tracer = DecisionTracer()
        simulate(policy, trace, tracer=tracer)
        tax = tracer.taxonomy()
        assert tax.total == policy.misses == tracer.misses
        assert sum(tax.counts().values()) == tax.total
        assert tracer.hits == policy.hits
        assert tracer.is_complete

    @pytest.mark.parametrize("name", known_policies())
    def test_every_eviction_is_attributed(self, name):
        """Each eviction lands in the record of the request that caused
        it, an admission's or a hit's (S4LRU's promotions cascade)."""
        trace = irm_trace(
            1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=7
        )
        kwargs = {
            "lrb": {"training_batch": 256, "max_training_data": 1024},
            "lfo": {"window_requests": 200},
        }.get(name, {})
        policy = build_policy(name, int(0.15 * trace.unique_bytes()), **kwargs)
        tracer = DecisionTracer()
        simulate(policy, trace, tracer=tracer)
        assert sum(len(r.victims) for r in tracer.records) == policy.evictions
        assert tracer.taxonomy().unattributed_evictions == 0

    def test_lhr_records_probability_and_threshold(self):
        trace = irm_trace(3000, 150, seed=5)
        policy = build_policy("lhr", int(0.05 * trace.unique_bytes()))
        tracer = DecisionTracer()
        simulate(policy, trace, tracer=tracer)
        probs = [r.probability for r in tracer.records if r.probability is not None]
        assert probs, "LHR never reported an admission probability"
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert any(r.threshold is not None for r in tracer.records)
        assert tracer.taxonomy().rejected_below_threshold >= 0


class TestRecordingModes:
    def test_ring_buffer_keeps_last_n(self):
        tracer = DecisionTracer(buffer=4)
        policy = make_policy("lru", 10_000)
        policy.attach_tracer(tracer)
        policy.process(_requests([(i, 10) for i in range(10)]))
        assert [r.obj_id for r in tracer.records] == [6, 7, 8, 9]
        assert not tracer.is_complete
        # Taxonomy counters still cover every request.
        assert tracer.taxonomy().total == 10

    def test_sampling_keeps_every_kth(self):
        tracer = DecisionTracer(sample_every=3)
        policy = make_policy("lru", 10_000)
        policy.attach_tracer(tracer)
        policy.process(_requests([(i, 10) for i in range(10)]))
        assert [r.index for r in tracer.records] == [0, 3, 6, 9]
        assert not tracer.is_complete
        assert tracer.taxonomy().total == 10

    def test_summary_and_record_dict_are_jsonable(self):
        import json

        tracer = DecisionTracer()
        policy = make_policy("lru", 100)
        policy.attach_tracer(tracer)
        policy.process(_requests([(1, 60), (2, 60), (1, 60)]))
        json.dumps(tracer.summary())
        json.dumps([r.as_dict() for r in tracer.records])


class TestDispatch:
    def test_attach_detach_leaves_no_shadow(self):
        policy = make_policy("lru", 100)
        assert "request" not in policy.__dict__
        policy.attach_tracer(DecisionTracer())
        assert "request" in policy.__dict__
        policy.attach_tracer(None)
        assert "request" not in policy.__dict__
        assert "_remove" not in policy.__dict__

    def test_traced_run_matches_untraced(self):
        trace = irm_trace(2000, 100, seed=3)
        capacity = int(0.1 * trace.unique_bytes())
        plain = simulate(build_policy("lhr", capacity, seed=0), trace)
        traced = simulate(
            build_policy("lhr", capacity, seed=0), trace,
            tracer=DecisionTracer(),
        )
        assert plain.counters() == traced.counters()
        assert traced.decision_trace is not None
        assert plain.decision_trace is None

    def test_request_override_rejected(self):
        tiered = TieredCache(make_policy("lru", 100), make_policy("lru", 200))
        with pytest.raises(ValueError, match="overridden"):
            tiered.attach_tracer(DecisionTracer())

    def test_no_remove_shadow_after_traced_run(self):
        policy = make_policy("lru", 200)
        policy.attach_tracer(DecisionTracer())
        policy.process(_requests([(1, 150), (2, 150), (1, 150)]))
        assert "_remove" not in policy.__dict__
        assert policy.evictions > 0


class TestTaxonomyDataclass:
    def test_empty_taxonomy(self):
        tax = MissTaxonomy()
        assert tax.total == 0
        assert tax.as_dict()["total_misses"] == 0

    def test_base_policy_decision_inputs_default(self):
        policy = make_policy("lru", 100)
        assert isinstance(policy, CachePolicy)
        req = _requests([(1, 10)])[0]
        assert policy.decision_inputs(req) == (None, None, None)
