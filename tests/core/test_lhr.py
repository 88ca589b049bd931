"""LHR: Algorithm 1 end to end, the four request cases, and ablations."""

import pytest

from repro.core.hro import hro_bound
from repro.core.lhr import DLhrCache, LhrCache, NLhrCache
from repro.policies import make_policy
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace


def req(obj_id, time, size=10):
    return Request(time=time, obj_id=obj_id, size=size)


@pytest.fixture(scope="module")
def trained_lhr(production_trace, production_capacity):
    cache = LhrCache(production_capacity, seed=0)
    cache.process(production_trace)
    return cache


class TestConstruction:
    def test_rejects_bad_eviction_rule(self):
        with pytest.raises(ValueError):
            LhrCache(100, eviction_rule="bogus")

    def test_variant_flags(self):
        d = DLhrCache(100)
        assert d.auto_threshold is False and d.use_detection is True
        n = NLhrCache(100)
        assert n.auto_threshold is False and n.use_detection is False

    def test_variant_names(self):
        assert DLhrCache(100).name == "d-lhr"
        assert NLhrCache(100).name == "n-lhr"
        assert LhrCache(100).name == "lhr"


class TestBootstrap:
    def test_admit_all_before_first_model(self):
        cache = LhrCache(1 << 30)
        cache.request(req(1, time=0.0))
        assert cache.contains(1)
        assert cache.admission_probability(1) == 1.0
        assert not cache.model_ready

    def test_initial_delta_is_half(self):
        assert LhrCache(100).delta == 0.5


class TestWindowPipeline:
    def test_model_trains_after_first_window(self):
        cache = LhrCache(100, window_multiple=1.0, min_window_requests=0, seed=1)
        for i in range(30):
            cache.request(req(i, time=float(i), size=10))
        assert cache.windows_processed >= 1
        assert cache.model_ready
        assert cache.trainings >= 1
        assert cache.training_seconds > 0

    def test_detection_gates_retraining(self, production_trace, production_capacity):
        gated = LhrCache(production_capacity, epsilon=10.0, seed=2)  # never drift
        always = NLhrCache(production_capacity, seed=2)
        gated.process(production_trace)
        always.process(production_trace)
        assert gated.windows_processed == always.windows_processed
        # epsilon so large the detector only fires the mandatory first time.
        assert gated.trainings <= 1 + 0
        assert always.trainings == always.windows_processed

    def test_window_buffers_cleared(self, trained_lhr):
        # After the final window closes mid-trace, the buffers hold at
        # most one open window of data.
        assert len(trained_lhr._window_rows) <= len(trained_lhr.hro._accumulator.counts) + trained_lhr.hro._accumulator.num_requests


class TestRequestCases:
    def _bootstrapped(self):
        """LHR with a trained model and controllable probabilities."""
        cache = LhrCache(1000, window_multiple=1.0, min_window_requests=0, seed=3)
        for i in range(200):
            cache.request(req(i % 40, time=float(i), size=50))
        assert cache.model_ready
        return cache

    def test_case_iv_low_probability_miss_discarded(self):
        cache = self._bootstrapped()
        cache.estimator.delta = 1.1  # force every p below delta
        cache.request(req(999, time=1000.0, size=50))
        assert not cache.contains(999)

    def test_case_iii_high_probability_miss_admitted(self):
        cache = self._bootstrapped()
        cache.estimator.delta = 0.0
        cache.request(req(998, time=1001.0, size=50))
        assert cache.contains(998)

    def test_case_ii_hit_below_delta_marks_eviction_candidate(self):
        cache = self._bootstrapped()
        cache.estimator.delta = 0.0
        cache.request(req(997, time=1002.0, size=50))
        cache.estimator.delta = 1.1
        cache.request(req(997, time=1003.0, size=50))  # hit with p < delta
        assert 997 in cache._eviction_candidates

    def test_case_i_hit_above_delta_clears_candidate_mark(self):
        cache = self._bootstrapped()
        cache.estimator.delta = 0.0
        cache.request(req(996, time=1004.0, size=50))
        cache.estimator.delta = 1.1
        cache.request(req(996, time=1005.0, size=50))
        cache.estimator.delta = 0.0
        cache.request(req(996, time=1006.0, size=50))
        assert 996 not in cache._eviction_candidates

    def test_probability_vector_tracks_cached_contents(self, trained_lhr):
        for obj_id in list(trained_lhr.cached_objects())[:20]:
            assert trained_lhr.admission_probability(obj_id) is not None


class TestEviction:
    def test_eviction_values_prefer_recent_popular(self):
        cache = LhrCache(1000, seed=4)
        cache._probabilities = {1: 0.9, 2: 0.1}
        cache._sizes = {1: 10, 2: 10}
        cache.features.observe(req(1, time=0.0))
        cache.features.observe(req(2, time=0.0))
        q1 = cache._eviction_value(1, now=5.0)
        q2 = cache._eviction_value(2, now=5.0)
        assert q1 > q2  # higher p -> keep

    def test_size_matters_under_lhr_rule(self):
        cache = LhrCache(1000, eviction_rule="lhr", seed=5)
        cache._probabilities = {1: 0.5, 2: 0.5}
        cache._sizes = {1: 10, 2: 1000}
        cache.features.observe(req(1, time=0.0, size=10))
        cache.features.observe(req(2, time=0.0, size=1000))
        assert cache._eviction_value(1, now=5.0) > cache._eviction_value(2, now=5.0)

    def test_p_only_rule_ignores_size_and_recency(self):
        cache = LhrCache(1000, eviction_rule="p-only", seed=6)
        cache._probabilities = {1: 0.5}
        assert cache._eviction_value(1, now=123.0) == 0.5

    def test_capacity_respected_throughout(self, production_trace, production_capacity):
        cache = LhrCache(production_capacity, seed=7)
        for request in production_trace:
            cache.request(request)
            assert cache.used_bytes <= production_capacity


class TestEndToEnd:
    def test_beats_lru_on_production_standin(self, production_trace, production_capacity, trained_lhr):
        lru = make_policy("lru", production_capacity)
        lru.process(production_trace)
        assert trained_lhr.object_hit_ratio > lru.object_hit_ratio

    def test_below_hro_bound(self, trained_lhr, production_trace, production_capacity):
        # LHR's HRO only accounts windows; the bound is HRO run over the
        # same trace with LHR's window settings.
        bound = hro_bound(production_trace, production_capacity, 4.0, 512)
        assert trained_lhr.object_hit_ratio <= bound.hit_ratio + 0.05

    def test_metadata_accounting(self, trained_lhr, production_capacity):
        metadata = trained_lhr.metadata_bytes()
        assert metadata > 0
        # Section 7.2: metadata is a small fraction of the cache size.
        assert metadata < 0.25 * production_capacity

    def test_deterministic_given_seed(self):
        trace = irm_trace(2000, 60, mean_size=1 << 12, seed=9)
        capacity = int(0.2 * trace.unique_bytes())

        def run():
            cache = LhrCache(capacity, seed=11)
            cache.process(trace)
            return cache.hits, cache.delta

        assert run() == run()

    def test_ablation_hierarchy_runs(self, production_trace, production_capacity):
        results = {}
        for cls in (LhrCache, DLhrCache, NLhrCache):
            cache = cls(production_capacity, seed=12)
            cache.process(production_trace)
            results[cache.name] = cache
        # All variants function; N-LHR trains at least as often as D-LHR.
        assert results["n-lhr"].trainings >= results["d-lhr"].trainings
        for cache in results.values():
            assert 0.0 < cache.object_hit_ratio < 1.0


class TestDeeperBehaviour:
    def test_threshold_history_length_matches_updates(self, production_trace, production_capacity):
        cache = LhrCache(production_capacity, seed=3)
        cache.process(production_trace)
        # History grows only on windows where the estimator ran (drift or
        # first training), plus the initial entry.
        assert 1 <= len(cache.estimator.history) <= cache.windows_processed + 1

    def test_feature_store_pruned_between_windows(self, production_trace, production_capacity):
        cache = LhrCache(production_capacity, seed=4)
        cache.process(production_trace)
        # The store must not have retained every content ever seen
        # (pruning bounds it to recently active contents).
        total_contents = len(production_trace.unique_contents())
        assert len(cache.features) <= total_contents

    def test_model_uses_irt_features(self, production_trace, production_capacity):
        from repro.core.features import feature_dim

        cache = LhrCache(production_capacity, seed=5)
        cache.process(production_trace)
        importances = cache._model.feature_importances(
            feature_dim(cache.num_irts)
        )
        assert importances.sum() == pytest.approx(1.0)
        # IRT_1 (recency) or the static block must carry real signal.
        assert importances.max() > 0.05

    def test_eviction_candidates_subset_of_cache(self, production_trace, production_capacity):
        cache = LhrCache(production_capacity, seed=6)
        for request in production_trace:
            cache.request(request)
        cached = set(cache.cached_objects())
        assert set(cache._eviction_candidates).issubset(cached)

    def test_window_multiple_controls_window_count(self, production_trace, production_capacity):
        narrow = LhrCache(production_capacity, window_multiple=2.0,
                          min_window_requests=0, seed=7)
        wide = LhrCache(production_capacity, window_multiple=8.0,
                        min_window_requests=0, seed=7)
        narrow.process(production_trace)
        wide.process(production_trace)
        assert narrow.windows_processed >= wide.windows_processed

    def test_hro_labels_nontrivial(self, production_trace, production_capacity):
        """The supervision signal must contain both classes, otherwise the
        learner degenerates to a constant."""
        from repro.core.hro import window_labels_for_ids

        cache = LhrCache(production_capacity, seed=8)
        labels_seen = []
        original = cache._train

        def spy(window):
            labels_seen.append(
                float(window_labels_for_ids(window, cache._window_ids).mean())
            )
            original(window)

        cache._train = spy
        cache.process(production_trace)
        assert labels_seen
        assert any(0.02 < fraction < 0.98 for fraction in labels_seen)


class TestHroAccountantOnly:
    """LHR runs only HRO's window accountant: it never classifies a
    request, and it ranks the last two windows only when a decision trace
    asks for hazard ranks — at most once per closed window."""

    @pytest.fixture
    def spies(self, monkeypatch):
        from repro.bounds import hazard
        from repro.core import hro
        from repro.core.hro import HroBound

        calls = {"process": 0, "knapsack": []}
        process = HroBound.process
        knapsack = hazard.hazard_knapsack

        def spy_process(self, request):
            calls["process"] += 1
            return process(self, request)

        def spy_knapsack(hazards, sizes, capacity):
            calls["knapsack"].append(len(hazards))
            return knapsack(hazards, sizes, capacity)

        monkeypatch.setattr(HroBound, "process", spy_process)
        monkeypatch.setattr(hazard, "hazard_knapsack", spy_knapsack)
        monkeypatch.setattr(hro, "hazard_knapsack", spy_knapsack)
        return calls

    @pytest.fixture(scope="class")
    def trace(self):
        return irm_trace(3000, 150, mean_size=1 << 12, seed=5)

    @staticmethod
    def _counters(policy):
        return (
            policy.hits,
            policy.misses,
            policy.admissions,
            policy.evictions,
            policy.hit_bytes,
            policy.windows_processed,
            policy.trainings,
            policy.delta,
        )

    @pytest.mark.parametrize("name", ["lhr", "d-lhr", "n-lhr"])
    def test_untraced_replay_never_classifies_or_ranks(self, name, trace, spies):
        from repro.sim import build_policy, simulate

        policy = build_policy(name, int(0.1 * trace.unique_bytes()))
        simulate(policy, trace)
        windows = policy.hro.windows
        assert len(windows) >= 2
        assert spies["process"] == 0
        assert policy.hro.requests == 0
        # One knapsack per close, over that window's own contents: the top
        # set LHR labels with.  No two-window ranking.
        assert spies["knapsack"] == [len(window.counts) for window in windows]

    @pytest.mark.parametrize("name", ["lhr", "d-lhr", "n-lhr"])
    def test_traced_replay_ranks_at_most_once_per_close(self, name, trace, spies):
        from repro.obs import DecisionTracer
        from repro.sim import build_policy, simulate

        capacity = int(0.1 * trace.unique_bytes())
        untraced = build_policy(name, capacity)
        simulate(untraced, trace)
        labels_only = len(spies["knapsack"])
        del spies["knapsack"][:]
        traced = build_policy(name, capacity)
        tracer = DecisionTracer()
        simulate(traced, trace, tracer=tracer)
        windows = traced.hro.windows
        assert spies["process"] == 0
        assert labels_only == len(windows) >= 2
        assert len(windows) < len(spies["knapsack"]) <= 2 * len(windows)
        # Records are read after the request, so the request that closes
        # the first window is the first to carry a rank.
        records = tracer.records
        first_close = windows[0].num_requests - 1
        assert all(r.hazard_rank is None for r in records[:first_close])
        assert records[first_close].hazard_rank is not None
        ranked = sum(r.hazard_rank is not None for r in records[first_close:])
        assert ranked > len(records[first_close:]) // 2
        assert self._counters(traced) == self._counters(untraced)
