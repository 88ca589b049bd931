"""Decision tracer: recording modes, the miss-taxonomy invariant, victim
attribution, residency diagnostics, and the zero-cost untraced
dispatch."""

import json
import pickle
from dataclasses import dataclass

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
from repro.traces import generate_production_trace
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace
from repro.util.stats import PercentileTracker, RunningStats

#: Trimmed learner settings so the heavyweight policies train at these
#: trace sizes.
POLICY_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


def _requests(spec):
    """Build requests from ``(obj_id, size)`` pairs."""
    return [
        Request(time=float(i), obj_id=obj_id, size=size, index=i)
        for i, (obj_id, size) in enumerate(spec)
    ]


# ----------------------------------------------------------------------
# The residency-diagnostics wrapper the tracer replaced, kept verbatim as
# the oracle for ``DecisionTracer.residency``: it wraps a policy, forwards
# ``request`` and closes residencies from a patched ``_on_evict``.
# ----------------------------------------------------------------------


@dataclass
class _Residency:
    admitted_at: float
    hits: int = 0


class InstrumentedPolicy:
    """Transparent diagnostics wrapper around a cache policy."""

    def __init__(self, policy: CachePolicy):
        self.policy = policy
        self.name = f"instrumented({policy.name})"
        self._residency: dict[int, _Residency] = {}
        self._now = 0.0
        self.eviction_ages = RunningStats()
        self.eviction_age_percentiles = PercentileTracker(capacity=8192, seed=1)
        self.hits_per_residency = RunningStats()
        self.dead_on_arrival = 0
        self.completed_residencies = 0
        self.miss_requests = 0
        self.admitted_requests = 0
        # Intercept evictions at the source (O(1) per eviction instead of
        # scanning the residency table per request).
        original_on_evict = policy._on_evict

        def hooked_on_evict(obj_id: int) -> None:
            self._finish(obj_id, self._now)
            original_on_evict(obj_id)

        policy._on_evict = hooked_on_evict

    # ------------------------------------------------------------------

    def request(self, req: Request) -> bool:
        self._now = req.time
        hit = self.policy.request(req)
        if hit:
            record = self._residency.get(req.obj_id)
            if record is not None:
                record.hits += 1
        else:
            self.miss_requests += 1
            if self.policy.contains(req.obj_id):
                self.admitted_requests += 1
                self._residency[req.obj_id] = _Residency(admitted_at=req.time)
        return hit

    def _finish(self, obj_id: int, now: float) -> None:
        record = self._residency.pop(obj_id, None)
        if record is None:
            return
        age = max(now - record.admitted_at, 0.0)
        self.eviction_ages.add(age)
        self.eviction_age_percentiles.add(age)
        self.hits_per_residency.add(float(record.hits))
        self.completed_residencies += 1
        if record.hits == 0:
            self.dead_on_arrival += 1

    def process(self, requests) -> None:
        for req in requests:
            self.request(req)

    def replay_span(self, obj_ids, sizes, times, begin: int, end: int) -> None:
        """The engine's entry point: the base walker over this wrapper's
        ``request``, so ``simulate`` records diagnostics too (the inner
        policy's span kernel would bypass the wrapper)."""
        CachePolicy.replay_span(self, obj_ids, sizes, times, begin, end)

    # ------------------------------------------------------------------
    # Pass-throughs so the wrapper quacks like the inner policy.
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.policy, name)

    # ------------------------------------------------------------------

    @property
    def admission_ratio(self) -> float:
        """Fraction of misses that were admitted."""
        return (
            self.admitted_requests / self.miss_requests
            if self.miss_requests
            else 0.0
        )

    @property
    def dead_on_arrival_ratio(self) -> float:
        """Fraction of completed residencies that served zero hits."""
        return (
            self.dead_on_arrival / self.completed_residencies
            if self.completed_residencies
            else 0.0
        )

    def report(self) -> dict:
        return {
            "policy": self.policy.name,
            "object_hit_ratio": round(self.policy.object_hit_ratio, 4),
            "admission_ratio": round(self.admission_ratio, 4),
            "dead_on_arrival_ratio": round(self.dead_on_arrival_ratio, 4),
            "mean_eviction_age_s": round(self.eviction_ages.mean, 2),
            "p90_eviction_age_s": round(
                self.eviction_age_percentiles.percentile(90), 2
            ),
            "mean_hits_per_residency": round(self.hits_per_residency.mean, 3),
        }


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
        it, an admission's or a hit's (S4LRU's promotions cascade), and
        tracing leaves every counter as an untraced twin's."""
        trace = irm_trace(
            1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=7
        )
        capacity = int(0.15 * trace.unique_bytes())
        kwargs = POLICY_KWARGS.get(name, {})
        policy = build_policy(name, capacity, **kwargs)
        tracer = DecisionTracer()
        traced = simulate(policy, trace, tracer=tracer)
        assert sum(len(r.victims) for r in tracer.records) == policy.evictions
        assert tracer.taxonomy().unattributed_evictions == 0
        untraced = simulate(build_policy(name, capacity, **kwargs), trace)
        assert traced.counters() == untraced.counters()

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
        tracer = DecisionTracer()
        policy = make_policy("lru", 100)
        policy.attach_tracer(tracer)
        policy.process(_requests([(1, 60), (2, 60), (1, 60)]))
        summary = json.loads(json.dumps(tracer.summary()))
        assert summary["residency"] == tracer.residency()
        assert summary["residency"]["completed_residencies"] == 2
        json.dumps([r.as_dict() for r in tracer.records])

    def test_pickles_with_open_residencies(self):
        """Sweep workers ship tracers back; open residencies travel with
        them and still close after the round trip."""
        tracer = DecisionTracer(buffer=2)
        policy = make_policy("lru", 200)
        policy.attach_tracer(tracer)
        policy.process(_requests([(1, 100), (2, 100), (1, 100)]))
        copy = pickle.loads(pickle.dumps(tracer))
        assert copy.summary() == tracer.summary()
        assert copy.completed_residencies == 0
        # Content 3's admission evicts 2 (admitted at 1.0, never hit).
        closing = Request(time=5.0, obj_id=3, size=100, index=3)
        for each in (tracer, copy):
            each.observe(closing, hit=False, admitted=True, victims=(2,))
        assert copy.summary() == tracer.summary()
        assert copy.completed_residencies == copy.dead_on_arrival == 1
        assert copy.eviction_ages.mean == 4.0


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
        class Forwarding(CachePolicy):
            """Its own ``request``: the tracer could not see inside."""

            name = "forwarding"

            def request(self, req):
                return super().request(req)

            def _select_victim(self, incoming):
                return next(iter(self._sizes))

        policy = Forwarding(100)
        with pytest.raises(ValueError, match="overridden"):
            policy.attach_tracer(DecisionTracer())

    def test_no_remove_shadow_after_traced_run(self):
        policy = make_policy("lru", 200)
        policy.attach_tracer(DecisionTracer())
        policy.process(_requests([(1, 150), (2, 150), (1, 150)]))
        assert "_remove" not in policy.__dict__
        assert policy.evictions > 0


def _traced(name, capacity, requests, tracer=None):
    tracer = tracer or DecisionTracer()
    policy = build_policy(name, capacity)
    policy.attach_tracer(tracer)
    policy.process(requests)
    return tracer


@pytest.fixture(scope="module")
def oracle_traces():
    """The registry IRM trace at 20% and a cdn-a stand-in at 5% of their
    unique bytes, as ``(trace, capacity)``."""
    irm = irm_trace(600, 60, alpha=0.9, mean_size=1 << 10, size_sigma=1.0, seed=5)
    cdn_a = generate_production_trace("cdn-a", scale=0.005, seed=3)
    return {
        "irm": (irm, max(int(0.2 * irm.unique_bytes()), 1)),
        "cdn-a": (cdn_a, int(0.05 * cdn_a.unique_bytes())),
    }


class TestResidency:
    """Residency diagnostics against the reference wrapper and under
    sampling; the hand-built cases are in tests/sim/test_instrumentation.py."""

    @pytest.mark.parametrize("name", ["s4lru", "lhr"])
    def test_covers_every_request_when_sampled(self, name, oracle_traces):
        trace, capacity = oracle_traces["irm"]
        complete = _traced(name, capacity, trace)
        sampled = _traced(
            name, capacity, trace, DecisionTracer(buffer=16, sample_every=7)
        )
        assert not sampled.is_complete
        assert complete.completed_residencies > 0
        assert sampled.residency() == complete.residency()

    @pytest.mark.parametrize("trace_name", ["irm", "cdn-a"])
    @pytest.mark.parametrize("name", known_policies())
    def test_matches_reference_wrapper(self, name, trace_name, oracle_traces):
        """Field for field, the wrapper's report for every registered
        policy: S4LRU's hit-path cascades and the LHR variants too."""
        trace, capacity = oracle_traces[trace_name]
        kwargs = POLICY_KWARGS.get(name, {})
        reference = InstrumentedPolicy(build_policy(name, capacity, **kwargs))
        reference.process(trace)
        tracer = DecisionTracer()
        simulate(build_policy(name, capacity, **kwargs), trace, tracer=tracer)
        expected = reference.report()
        assert expected.pop("policy") == name
        assert expected.pop("object_hit_ratio") == round(tracer.hit_ratio, 4)
        residency = tracer.residency()
        assert {key: residency[key] for key in expected} == expected
        assert residency["completed_residencies"] == reference.completed_residencies
        assert residency["dead_on_arrival"] == reference.dead_on_arrival


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
