"""LHR: Algorithm 1 end to end, the four request cases, and ablations."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hro import hro_bound
from repro.core.lhr import EVICTION_RULES, DLhrCache, LhrCache, NLhrCache
from repro.core.model_backends import BatchedBackend, ModelBackend
from repro.policies import make_policy
from repro.traces.packed import PackedTrace
from repro.traces.request import Request, Trace
from repro.traces.synthetic import irm_trace
from repro.util.indexed_set import IndexedSet


def req(obj_id, time, size=10):
    return Request(time=time, obj_id=obj_id, size=size)


class _SequenceBackend(ModelBackend):
    """Serves the given scores in order, one per scored row."""

    def __init__(self, scores):
        self._scores = iter(scores)

    def score_one(self, model, row):
        return next(self._scores)

    def score_block(self, model, rows):
        return np.array([next(self._scores) for _ in rows])


def closed_windows(policy):
    """Every window ``policy``'s HRO closes from now on, collected by a
    hook chained in front of LHR's own (HRO keeps only the last two)."""
    closed = []
    pipeline = policy.hro.on_window

    def collect(window):
        closed.append(window)
        pipeline(window)

    policy.hro.on_window = collect
    return closed


def scripted(cache, scores):
    """``cache`` with a stand-in model whose outputs are ``scores``, in
    request order.  Only for replays too short to close a window, whose
    refit would replace the stand-in."""
    cache._model = "scripted"
    cache._backend = _SequenceBackend(scores)
    return cache


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

    @pytest.mark.parametrize("num_irts", [0, -1])
    def test_rejects_num_irts_below_one(self, num_irts):
        with pytest.raises(ValueError, match="num_irts"):
            LhrCache(100, num_irts=num_irts)


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

    def test_window_buffers_cleared(self, production_trace, production_capacity):
        """After every request of the span kernel the window buffers hold
        exactly the open window's requests: one feature row, id and
        sample each."""
        from repro.sim import simulate

        cache = LhrCache(production_capacity, seed=0)
        request = cache.request

        def checked(req):
            hit = request(req)
            assert (
                cache._window_len
                == len(cache._window_ids)
                == len(cache._window_samples)
                == cache.hro._accumulator.num_requests
            )
            return hit

        cache.request = checked
        simulate(cache, production_trace)
        assert cache.windows_processed >= 2

    def test_refit_reads_the_window_matrix(
        self, production_trace, production_capacity, monkeypatch
    ):
        """Each refit fits the window's rows where they were written, a
        view of the window matrix rather than a copy, and they equal bit
        for bit the rows the window's requests were scored with."""
        from repro.core.gbm import GradientBoostingRegressor
        from repro.sim import simulate

        cache = LhrCache(production_capacity, seed=0)
        scored = []
        request = cache.request

        def recording(req):
            scored.append(cache._scored[0].copy())
            return request(req)

        cache.request = recording
        closed = closed_windows(cache)
        fits = []
        fit = GradientBoostingRegressor.fit

        def spy(model, features, targets, *args, **kwargs):
            # A refit runs inside the close of the last window collected.
            in_place = np.shares_memory(features, cache._window_matrix)
            fits.append((closed[-1], in_place, features.tobytes()))
            return fit(model, features, targets, *args, **kwargs)

        monkeypatch.setattr(GradientBoostingRegressor, "fit", spy)
        simulate(cache, production_trace)
        assert len(fits) == cache.trainings >= 2
        for window, in_place, rows in fits:
            start = sum(w.num_requests for w in closed[: window.index])
            expected = np.array(scored[start : start + window.num_requests])
            assert in_place
            assert rows == expected.tobytes()


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
        # Same size and last access: the higher p is kept.
        cache = scripted(LhrCache(20, seed=4), [0.9, 0.1])
        cache.estimator.delta = 0.0  # admit both
        cache.request(req(1, time=0.0))
        cache.request(req(2, time=0.0))
        assert cache.admission_probability(1) == 0.9
        assert cache._select_victim(req(3, time=5.0)) == 2

    def test_size_matters_under_lhr_rule(self):
        # Same p and last access: the larger content goes.
        cache = scripted(LhrCache(1010, eviction_rule="lhr", seed=5), [0.5, 0.5])
        cache.request(req(1, time=0.0, size=10))
        cache.request(req(2, time=0.0, size=1000))
        assert cache._select_victim(req(3, time=5.0)) == 2

    def test_p_only_rule_ignores_size_and_recency(self):
        # Content 2 is 100x larger and idle 123 s against 23 s, so the
        # paper's rule evicts it; smallest-p evicts 1 (p 0.5 < 0.6).
        victims = {}
        for rule in ("p-only", "lhr"):
            cache = scripted(LhrCache(1010, eviction_rule=rule, seed=6), [0.6, 0.5])
            cache.request(req(2, time=0.0, size=1000))
            cache.request(req(1, time=100.0, size=10))
            victims[rule] = cache._select_victim(req(3, time=123.0))
        assert victims == {"p-only": 1, "lhr": 2}

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
        windows = closed_windows(policy)
        simulate(policy, trace)
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
        windows = closed_windows(traced)
        tracer = DecisionTracer()
        simulate(traced, trace, tracer=tracer)
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


class ReferenceLhrCache(LhrCache):
    """LHR with the victim pick the columnar one replaced, kept verbatim
    as the differential oracle: L in a dict, the cached ids in an
    ``IndexedSet`` sampled through ``IndexedSet.sample``, ``min()`` over
    ``_eviction_value`` for the two ablation rules and a per-candidate
    loop for the paper's rule.  Its slot columns stay empty."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._probabilities: dict[int, float] = {}
        self._cached_ids = IndexedSet()

    def admission_probability(self, obj_id):
        return self._probabilities.get(obj_id)

    def metadata_bytes(self):
        return super().metadata_bytes() + 16 * len(self._probabilities)

    def _on_hit(self, req):
        p = self._current_p
        self._probabilities[req.obj_id] = p
        if p < self.delta:
            self._eviction_candidates.add(req.obj_id)
        else:
            self._eviction_candidates.discard(req.obj_id)

    def _on_admit(self, req):
        self._probabilities[req.obj_id] = self._current_p
        self._cached_ids.add(req.obj_id)

    def _on_evict(self, obj_id):
        self._probabilities.pop(obj_id, None)
        self._eviction_candidates.discard(obj_id)
        self._cached_ids.discard(obj_id)

    def _eviction_value(self, obj_id, now):
        p = self._probabilities.get(obj_id, 0.0)
        if self.eviction_rule == "p-only":
            return p
        last = self.features.last_access(obj_id)
        irt1 = max(now - last, 1e-9) if last is not None else 1e9
        if self.eviction_rule == "p-recency":
            return p / irt1
        return p / (self._sizes[obj_id] * irt1)

    def _select_victim(self, incoming):
        now = incoming.time
        if len(self._eviction_candidates):
            pool = self._eviction_candidates.sample(self._num_candidates, self._rng)
        else:
            pool = self._cached_ids.sample(self._num_candidates, self._rng)
        if self.eviction_rule != "lhr":
            return min(pool, key=lambda oid: self._eviction_value(oid, now))
        probabilities = self._probabilities
        records = self.features._records
        sizes = self._sizes
        best = -1
        best_value = np.inf
        for oid in pool:
            record = records.get(oid)
            if record is None:
                irt1 = 1e9
            else:
                gap = now - record.last_time
                irt1 = gap if gap > 1e-9 else 1e-9
            value = probabilities.get(oid, 0.0) / (sizes[oid] * irt1)
            if value < best_value:
                best_value = value
                best = oid
        return best


class _ChecksumBackend(ModelBackend):
    """Scores a feature row with an entry of ``scores`` picked by the
    row's checksum, so both caches of a lockstep replay score alike."""

    def __init__(self, scores):
        self._scores = scores

    def score_one(self, model, row):
        return self._scores[zlib.crc32(row.tobytes()) % len(self._scores)]


#: A one-stump model: the checksum backend ignores it, so refits only
#: need to be cheap.
_STUMP = {"n_estimators": 1, "max_depth": 1, "learning_rate": 0.3, "subsample": 1.0, "seed": 0}


@st.composite
def lhr_replays(draw):
    """A random trace with LHR settings and a score table.  Few distinct
    sizes, gaps and scores make q ties, equal timestamps, candidate
    marks (hits below delta) and NaN scores common.  Rare idle gaps
    outlast four short windows, so a close prunes the records of cached
    contents."""
    capacity = draw(st.integers(4, 300))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    sizes += draw(st.lists(st.integers(1, capacity + 1), max_size=1))
    scores = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), min_size=1, max_size=4))
    scores += [math.nan] * draw(st.sampled_from([0, 0, 1, 3]))
    idle = draw(st.sampled_from([0.0, 0.02, 0.05]))
    n = draw(st.one_of(st.integers(1, 100), st.integers(300, 800)))
    objects = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size_of = rng.choice(sizes, objects).tolist()
    gaps = rng.choice([0.0, 0.0, 1.0, 2.0], n)
    gaps[rng.random(n) < idle] = 1000.0
    trace = [
        Request(time=time, obj_id=obj_id, size=size_of[obj_id])
        for time, obj_id in zip(np.cumsum(gaps).tolist(), rng.integers(0, objects, n).tolist())
    ]
    settings_ = {
        "capacity": capacity,
        "eviction_rule": draw(st.sampled_from(EVICTION_RULES)),
        "num_candidates": draw(st.sampled_from([1, 4, 64])),
        "window_multiple": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "min_window_requests": 0,
        "auto_threshold": draw(st.booleans()),
        "gbm_params": _STUMP,
        "seed": draw(st.integers(0, 3)),
    }
    return trace, scores, settings_


def _state(cache):
    cached = cache.cached_objects()
    return (
        cache.hits,
        cache.misses,
        cache.hit_bytes,
        cache.miss_bytes,
        cache.admissions,
        cache.evictions,
        cache.used_bytes,
        cache.windows_processed,
        cache.trainings,
        cache.delta,
        cache.metadata_bytes(),
        cached,
        list(cache._eviction_candidates),
        # repr: NaN equals NaN, and -0.0 differs from 0.0.
        [repr(cache.admission_probability(obj_id)) for obj_id in cached],
        cache._rng.bit_generator.state,
    )


def _record_victims(cache):
    """Shadow ``cache._remove`` so every eviction lands in the returned
    list, in order."""
    victims = []
    remove = cache._remove

    def capture(obj_id):
        victims.append(obj_id)
        remove(obj_id)

    cache._remove = capture
    return victims


def replay_in_lockstep(trace, backend_factory, **settings_):
    """Replay ``trace`` through LhrCache and ReferenceLhrCache side by
    side.  After every request, assert the same verdict, the same
    victims in order and the same state.  When one raises (a NaN score
    fails closed), the other must raise the same exception at the same
    request.  Returns the evictions."""
    caches = [LhrCache(**settings_), ReferenceLhrCache(**settings_)]
    for cache in caches:
        cache._backend = backend_factory()
    victims = [_record_victims(cache) for cache in caches]
    columnar, reference = caches
    for request in trace:
        outcomes = []
        for cache, evicted in zip(caches, victims):
            del evicted[:]
            try:
                outcomes.append((cache.request(request), list(evicted)))
            except Exception as exc:  # noqa: BLE001 — compared below
                outcomes.append(exc)
        if isinstance(outcomes[1], Exception):
            assert repr(outcomes[0]) == repr(outcomes[1])
            break
        assert outcomes[0] == outcomes[1]
        assert _state(columnar) == _state(reference)
    return columnar.evictions


class TestColumnarPickMatchesReference:
    """The columnar pick evicts exactly the old pick's victims."""

    @settings(max_examples=200, deadline=None)
    @given(replay=lhr_replays())
    def test_random_traces(self, replay):
        trace, scores, settings_ = replay
        replay_in_lockstep(trace, lambda: _ChecksumBackend(scores), **settings_)

    @pytest.mark.parametrize("rule", EVICTION_RULES)
    def test_production_standin(self, rule, production_trace, production_capacity):
        # The real model, scoring each request alone, over 5k requests.
        evictions = replay_in_lockstep(
            production_trace, BatchedBackend, capacity=production_capacity, eviction_rule=rule
        )
        assert evictions > 1000

    @pytest.mark.parametrize("rule", EVICTION_RULES)
    def test_all_nan_sample(self, rule):
        # Two hits that score NaN, then an admission that needs room.  A
        # NaN never reaches L, so no sample can be all NaN: the first hit
        # that scores NaN fails, under every rule and in both caches.
        trace = Trace([req(1, 0.0), req(2, 0.0), req(1, 1.0), req(2, 1.0), req(3, 2.0)])
        scores = [1.0, 1.0, math.nan, math.nan, 1.0]
        caches = [scripted(cls(20, eviction_rule=rule), scores) for cls in (LhrCache, ReferenceLhrCache)]
        for cache in caches:
            for request in trace[:2]:
                cache.request(request)
            with pytest.raises(ValueError, match="request 2: model score nan is not finite"):
                cache.request(trace[2])
            assert cache.hits == 0 and cache.admission_probability(1) == 1.0


class _FirstBlockNanBackend(ModelBackend):
    """Scores every row 0.9, except that the first block it scores holds
    a NaN at ``position``."""

    def __init__(self, position):
        self.position = position
        self.blocks = 0

    def score_block(self, model, rows):
        scores = np.full(rows.shape[0], 0.9)
        if not self.blocks:
            scores[self.position] = np.nan
        self.blocks += 1
        return scores


class TestNonFiniteScores:
    """A score that is not finite fails closed where a request consumes it."""

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_names_the_request_on_both_paths(self, score):
        trace = Trace([req(1, 0.0), req(2, 0.0), req(1, 1.0), req(3, 2.0)])
        error = f"lhr: request 2: model score {score} is not finite"
        per_request = scripted(LhrCache(1000), [0.5, 0.5, score, 0.5])
        for request in trace[:2]:
            per_request.request(request)
        with pytest.raises(ValueError, match=error):
            per_request.request(trace[2])
        span = scripted(LhrCache(1000), [0.5, 0.5, score, 0.5])
        packed = PackedTrace.from_trace(trace)
        columns = packed.obj_ids, packed.sizes, packed.times
        with pytest.raises(ValueError, match=error):
            span.replay_span(*columns, 0, len(trace))
        for cache in (per_request, span):
            assert cache.hits + cache.misses == 2

    def test_discarded_block_tail_is_not_checked(self):
        # The first scored block runs to the end of the span; a window
        # close cuts it short, so its last row is re-scored, never
        # consumed.  A NaN in its first row is consumed at once.
        packed = PackedTrace.from_trace(irm_trace(2000, 150, seed=4))
        columns = packed.obj_ids, packed.sizes, packed.times

        def replay(position):
            cache = LhrCache(
                20_000_000, window_multiple=1.0, min_window_requests=0, gbm_params=_STUMP
            )
            cache._backend = _FirstBlockNanBackend(position)
            cache.replay_span(*columns, 0, len(packed))
            return cache

        cache = replay(-1)
        assert cache.hits + cache.misses == len(packed)
        assert cache._backend.blocks >= 2
        with pytest.raises(ValueError, match="model score nan is not finite"):
            replay(0)
