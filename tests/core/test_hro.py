"""HRO: window mechanics, hazard ranking, upper-bound behaviour, and a
differential oracle against the bound that classified and ranked at
every request and close."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.hazard import hazard_knapsack
from repro.core.hazard_models import HAZARD_MODELS, fit_hazard_model
from repro.core.hro import (
    HroBound,
    HroWindow,
    _WindowAccumulator,
    compute_top_set,
    hro_bound,
    window_labels,
)
from repro.policies import make_policy
from repro.traces.request import Request
from repro.traces.synthetic import irm_trace


def req(obj_id, time, size=10):
    return Request(time=time, obj_id=obj_id, size=size)


class TestConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HroBound(0)

    def test_rejects_bad_window_multiple(self):
        with pytest.raises(ValueError):
            HroBound(100, window_multiple=0)

    def test_window_bytes(self):
        assert HroBound(100, window_multiple=4.0).window_bytes == 400


class TestWindowMechanics:
    def test_window_closes_on_unique_bytes(self):
        bound = HroBound(10, window_multiple=2.0)  # closes at 20 unique bytes
        for i in range(3):
            bound.process(req(i, time=float(i), size=10))
        assert len(bound.windows) == 1
        assert bound.windows[0].num_requests == 2

    def test_repeat_requests_do_not_advance_window(self):
        bound = HroBound(10, window_multiple=2.0)
        for t in range(10):
            bound.process(req(1, time=float(t), size=10))
        assert len(bound.windows) == 0  # only 10 unique bytes seen

    def test_on_window_callback(self):
        closed = []
        bound = HroBound(10, window_multiple=1.0)
        bound.on_window = closed.append
        bound.process(req(1, time=0.0, size=10))
        assert len(closed) == 1
        assert closed[0].index == 0

    def test_window_statistics(self):
        bound = HroBound(10, window_multiple=3.0)
        bound.process(req(1, time=0.0, size=10))
        bound.process(req(1, time=1.0, size=10))
        bound.process(req(2, time=2.0, size=10))
        bound.process(req(3, time=3.0, size=10))
        window = bound.windows[0]
        assert window.counts == {1: 2, 2: 1, 3: 1}
        assert window.unique_bytes == 30
        assert window.duration == pytest.approx(3.0)

    def test_hazard_rates_size_normalized(self):
        bound = HroBound(100, window_multiple=1.0)
        bound.process(req(1, time=0.0, size=10))
        bound.process(req(2, time=1.0, size=100))
        window = bound.windows[0]
        rates = window.hazard_rates()
        assert rates[1] == pytest.approx(10 * rates[2])


class TestClassification:
    def test_first_window_uses_infinite_cap_rule(self):
        bound = HroBound(1000, window_multiple=100.0)
        assert bound.process(req(1, time=0.0)) is False
        assert bound.process(req(1, time=1.0)) is True  # seen before
        assert bound.process(req(2, time=2.0)) is False

    def test_cold_content_never_hits(self):
        bound = HroBound(20, window_multiple=1.0)
        for i in range(20):
            assert bound.process(req(i, time=float(i), size=10)) is False

    def test_popular_content_hits_after_threshold_set(self):
        bound = HroBound(20, window_multiple=1.0)
        # Content 1 requested often; fillers close windows.
        filler = 100
        hits = []
        for t in range(40):
            hits.append(bound.process(req(1, time=2.0 * t, size=10)))
            bound.process(req(filler, time=2.0 * t + 1.0, size=10))
            filler += 1
        assert any(hits)
        assert bound.hit_ratio > 0

    def test_result_aggregates(self):
        bound = HroBound(1000, window_multiple=10.0)
        for t in range(5):
            bound.process(req(1, time=float(t), size=10))
        result = bound.result()
        assert result.name == "hro"
        assert result.requests == 5
        assert result.hits == 4
        assert result.total_bytes == 50


class TestTopSet:
    def test_compute_top_set_ranks_by_hazard_per_byte(self):
        counts = {1: 10, 2: 10}
        sizes = {1: 10, 2: 100}
        top = compute_top_set(counts, sizes, duration=1.0, capacity=10)
        assert 1 in top  # same rate, smaller size -> higher hazard

    def test_empty_counts(self):
        assert compute_top_set({}, {}, 1.0, 10) == frozenset()

    def test_marginal_hazard_zero_when_everything_fits(self):
        _, fill, threshold = hazard_knapsack(
            np.array([0.5]), np.array([10.0]), capacity=100
        )
        assert threshold == 0.0
        assert fill == 1

    def test_marginal_hazard_positive_under_pressure(self):
        # Ten 10-byte contents with hazards 1.0, 0.9, ..., 0.1: the third
        # hottest fills the 30-byte cache, so its hazard is the marginal.
        hazards = np.array([(10 - i) / 10 for i in range(10)])
        order, fill, threshold = hazard_knapsack(
            hazards, np.full(10, 10.0), capacity=30
        )
        assert threshold == hazards[2] > 0.0
        assert order[:fill].tolist() == [0, 1, 2]


class TestWindowLabels:
    def test_labels_match_top_set(self):
        bound = HroBound(10, window_multiple=2.0)
        windows = []
        bound.on_window = windows.append
        stream = [req(1, 0.0, 10), req(1, 1.0, 10), req(2, 2.0, 10)]
        for r in stream:
            bound.process(r)
        labels = window_labels(windows[0], stream)
        assert labels.shape == (3,)
        for label, r in zip(labels, stream):
            assert label == (1.0 if r.obj_id in windows[0].top_set else 0.0)


class TestBoundQuality:
    def test_upper_bounds_online_policies_on_irm(self):
        """On a stationary workload HRO should dominate online policies
        (Proposition A.1)."""
        trace = irm_trace(15_000, 200, alpha=0.9, mean_size=1 << 14, seed=8)
        capacity = int(0.1 * trace.unique_bytes())
        hro = hro_bound(trace, capacity)
        for name in ("lru", "lfu-da", "gdsf", "w-tinylfu"):
            policy = make_policy(name, capacity)
            policy.process(trace)
            assert hro.hits >= policy.hits, name

    def test_below_infinite_cap(self, production_trace, production_capacity):
        from repro.bounds import infinite_cap

        hro = hro_bound(production_trace, production_capacity)
        ceiling = infinite_cap(production_trace.requests)
        assert hro.hits <= ceiling.hits

    def test_larger_cache_raises_bound(self, production_trace):
        small = hro_bound(production_trace, int(0.02 * production_trace.unique_bytes()))
        large = hro_bound(production_trace, int(0.2 * production_trace.unique_bytes()))
        assert large.hits >= small.hits


class TestHazardModelIntegration:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="hazard_model"):
            HroBound(100, hazard_model="cauchy")

    @pytest.mark.parametrize("model", ["weibull", "hyperexponential"])
    def test_non_poisson_models_run(self, production_trace, production_capacity, model):
        bound = hro_bound(
            production_trace,
            production_capacity,
            min_window_requests=512,
            hazard_model=model,
        )
        assert 0.0 < bound.hit_ratio < 1.0

    def test_models_refit_at_window_close(self, production_trace, production_capacity):
        bound = HroBound(
            production_capacity, min_window_requests=512, hazard_model="weibull"
        )
        for request in production_trace:
            bound.process(request)
        assert len(bound.windows) >= 2
        assert len(bound._models) > 0

    def test_non_poisson_still_upper_bounds_policies(self):
        from repro.policies import make_policy
        from repro.traces.synthetic import irm_trace

        trace = irm_trace(12_000, 200, alpha=0.9, mean_size=1 << 14, seed=17)
        capacity = int(0.1 * trace.unique_bytes())
        bound = hro_bound(
            trace, capacity, min_window_requests=512, hazard_model="weibull"
        )
        for name in ("lru", "gdsf"):
            policy = make_policy(name, capacity)
            policy.process(trace)
            assert bound.hits >= policy.hits, name

    def test_poisson_path_keeps_no_irt_state(self, production_trace, production_capacity):
        bound = HroBound(production_capacity, min_window_requests=512)
        for request in production_trace[:1000]:
            bound.process(request)
        assert not bound._irts and not bound._models


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------


def _reference_top_set(obj_ids, hazards, sizes, capacity):
    order = np.argsort(hazards, kind="stable")[::-1]
    top = set()
    used = 0
    for idx in order:
        size = int(sizes[idx])
        if hazards[idx] <= 0:
            break
        top.add(obj_ids[idx])
        used += size
        if used >= capacity:
            break
    return top


def _reference_ranks(obj_ids, hazards):
    order = np.argsort(hazards, kind="stable")[::-1]
    return {obj_ids[int(idx)]: rank for rank, idx in enumerate(order)}


def _reference_poisson(counts, sizes, duration):
    ids = list(counts)
    size_arr = np.asarray([sizes[i] for i in ids], dtype=np.float64)
    hazard_arr = (
        np.asarray([counts[i] for i in ids], dtype=np.float64)
        / max(duration, 1e-9)
        / size_arr
    )
    return ids, hazard_arr, size_arr


def _reference_compute_top_set(counts, sizes, duration, capacity):
    if not counts:
        return frozenset()
    ids, hazard_arr, size_arr = _reference_poisson(counts, sizes, duration)
    return frozenset(_reference_top_set(ids, hazard_arr, size_arr, capacity))


def _reference_marginal_hazard(counts, sizes, duration, capacity):
    if not counts:
        return 0.0
    _, hazard_arr, size_arr = _reference_poisson(counts, sizes, duration)
    order = np.argsort(hazard_arr, kind="stable")[::-1]
    cumulative = np.cumsum(size_arr[order])
    inside = cumulative < capacity
    if inside.all():
        return 0.0
    return float(hazard_arr[order[int(np.argmin(inside))]])


class ReferenceHroBound:
    """The streaming bound that classified every request inside
    ``process_scalar`` (after adding it to the window) and refreshed the
    two-window threshold, top set and, when ``track_decisions`` is on,
    hazard ranks eagerly at every close — kept as the differential
    oracle, logic unchanged."""

    def __init__(self, capacity, window_multiple=4.0, min_window_requests=0,
                 hazard_model="poisson"):
        self.hazard_model = hazard_model
        self.capacity = capacity
        self.window_bytes = int(capacity * window_multiple)
        self.min_window_requests = min_window_requests
        self._accumulator = _WindowAccumulator()
        self._prev_counts = {}
        self._prev_duration = 0.0
        self._elapsed = 1e-9
        self._combined_sizes = {}
        self._hazard_threshold = 0.0
        self._top_set = frozenset()
        self._have_threshold = False
        self._seen = set()
        self._irts = {}
        self._last_time = {}
        self._models = {}
        self.windows = []
        self.track_decisions = False
        self.last_would_cache = True
        self._ranks = {}
        self.hits = 0
        self.hit_bytes = 0
        self.requests = 0
        self.total_bytes = 0

    def _hazard(self, obj_id, size, now=None):
        if self.hazard_model != "poisson" and now is not None:
            model = self._models.get(obj_id)
            if model is not None:
                age = max(now - self._last_time.get(obj_id, now), 0.0)
                return model.hazard(age) / size
        count = self._prev_counts.get(obj_id, 0) + self._accumulator.counts.get(
            obj_id, 0
        )
        return count / (self._elapsed * size)

    def _observe_irt_scalar(self, obj_id, time):
        previous = self._last_time.get(obj_id)
        if previous is not None and time > previous:
            gaps = self._irts.get(obj_id)
            if gaps is None:
                gaps = deque(maxlen=16)
                self._irts[obj_id] = gaps
            gaps.append(time - previous)

    def process(self, req):
        return self.process_scalar(req.obj_id, req.size, req.time)

    def process_scalar(self, obj_id, size, time):
        acc = self._accumulator
        start = acc.start_time
        if start is None:
            acc.start_time = start = time
        acc.end_time = time
        acc.num_requests += 1
        counts = acc.counts
        if obj_id in counts:
            counts[obj_id] += 1
        else:
            counts[obj_id] = 1
            acc.sizes[obj_id] = size
            acc.unique_bytes += size
        duration = time - start
        if duration < 1e-9:
            duration = 1e-9
        self._elapsed = self._prev_duration + duration
        if self.hazard_model != "poisson":
            self._observe_irt_scalar(obj_id, time)
        if self._have_threshold:
            seen = obj_id in self._seen
            if seen or self.track_decisions:
                would_cache = (
                    self._hazard(obj_id, size, time) > self._hazard_threshold
                    or obj_id in self._top_set
                )
            else:
                would_cache = False
            hit = seen and would_cache
        else:
            would_cache = True
            hit = obj_id in self._seen
        if self.track_decisions:
            self.last_would_cache = would_cache
        if hit:
            self.hits += 1
            self.hit_bytes += size
        self.requests += 1
        self.total_bytes += size
        self._seen.add(obj_id)
        if self.hazard_model != "poisson":
            self._last_time[obj_id] = time
        if (
            acc.unique_bytes >= self.window_bytes
            and acc.num_requests >= self.min_window_requests
        ):
            self._rank_and_rotate()
        return hit

    def _rank_and_rotate(self):
        acc = self._accumulator
        window = HroWindow(
            index=len(self.windows),
            num_requests=acc.num_requests,
            unique_bytes=acc.unique_bytes,
            duration=acc.duration,
            counts=dict(acc.counts),
            sizes=dict(acc.sizes),
            top_set=_reference_compute_top_set(
                acc.counts, acc.sizes, acc.duration, self.capacity
            ),
        )
        self.windows.append(window)
        combined = dict(self._prev_counts)
        for obj_id, count in acc.counts.items():
            combined[obj_id] = combined.get(obj_id, 0) + count
        sizes = {**self._combined_sizes, **acc.sizes}
        duration = max(self._prev_duration + acc.duration, 1e-9)
        self._hazard_threshold = _reference_marginal_hazard(
            combined, sizes, duration, self.capacity
        )
        self._top_set = _reference_compute_top_set(
            combined, sizes, duration, self.capacity
        )
        if self.track_decisions:
            ids, hazard_arr, _ = _reference_poisson(combined, sizes, duration)
            self._ranks = _reference_ranks(ids, hazard_arr)
        self._have_threshold = True
        if self.hazard_model != "poisson":
            self._refit_models(combined, sizes, duration, acc.end_time)
        self._prev_counts = dict(acc.counts)
        self._prev_duration = acc.duration
        self._combined_sizes = dict(acc.sizes)
        self._accumulator = _WindowAccumulator()
        self._elapsed = max(self._prev_duration, 1e-9)

    def _refit_models(self, combined, sizes, duration, close_time):
        models = {}
        hazards = {}
        for obj_id, count in combined.items():
            gaps = self._irts.get(obj_id)
            if gaps and len(gaps) >= 3:
                models[obj_id] = fit_hazard_model(self.hazard_model, list(gaps))
                age = max(close_time - self._last_time.get(obj_id, close_time), 0.0)
                hazards[obj_id] = models[obj_id].hazard(age) / sizes[obj_id]
            else:
                hazards[obj_id] = count / (duration * sizes[obj_id])
        self._models = models
        ids = list(hazards)
        if ids:
            hazard_arr = np.asarray([hazards[i] for i in ids])
            size_arr = np.asarray([sizes[i] for i in ids], dtype=float)
            order = np.argsort(hazard_arr, kind="stable")[::-1]
            cumulative = np.cumsum(size_arr[order])
            inside = cumulative < self.capacity
            if inside.all():
                self._hazard_threshold = 0.0
            else:
                marginal = int(np.argmin(inside))
                self._hazard_threshold = float(hazard_arr[order[marginal]])
            self._top_set = frozenset(
                _reference_top_set(ids, hazard_arr, size_arr, self.capacity)
            )
            if self.track_decisions:
                self._ranks = _reference_ranks(ids, hazard_arr)
        stale = [oid for oid in self._irts if oid not in combined]
        for oid in stale:
            self._irts.pop(oid, None)
            self._last_time.pop(oid, None)

    def hazard_rank(self, obj_id):
        return self._ranks.get(obj_id)

    @property
    def hazard_threshold(self):
        return self._hazard_threshold


@st.composite
def hro_cases(draw):
    """A random trace plus HRO settings.  Few distinct values make repeats,
    equal timestamps, equal hazards and contents larger than the cache
    common; a drawn seed fills the trace from the drawn pools."""
    capacity = draw(st.integers(1, 20_000))
    sizes = draw(
        st.lists(st.integers(1, max(capacity // 8, 1)), min_size=1, max_size=3)
    ) + draw(
        st.lists(
            st.one_of(
                st.integers(1, capacity),
                st.sampled_from([capacity, capacity + 1, 3 * capacity]),
            ),
            max_size=2,
        )
    )
    objects = draw(st.integers(1, 60))
    length = draw(st.integers(0, 400))
    skew = draw(st.sampled_from([0.0, 0.8, 1.2]))
    gaps = [0.0, 0.0, 0.25, 1.0, 3.0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    object_sizes = rng.choice(sizes, objects).tolist()
    weights = 1.0 / np.arange(1, objects + 1) ** skew
    requests = []
    now = 0.0
    for index, (obj_id, gap) in enumerate(
        zip(
            rng.choice(objects, length, p=weights / weights.sum()).tolist(),
            rng.choice(gaps, length).tolist(),
        )
    ):
        now += gap
        requests.append(Request(now, obj_id, object_sizes[obj_id], index))
    kwargs = {
        "window_multiple": draw(
            st.one_of(st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.25, 8.0))
        ),
        "min_window_requests": draw(st.integers(0, 50)),
        "hazard_model": draw(st.sampled_from(HAZARD_MODELS)),
    }
    return requests, capacity, kwargs


def _window_fields(window):
    return (
        window.index,
        window.num_requests,
        window.unique_bytes,
        window.duration,
        list(window.counts.items()),
        list(window.sizes.items()),
        window.top_set,
    )


class TestMatchesReference:
    """``process`` classifies before accounting and ranks on demand, yet
    every verdict, threshold, rank and closed window equals the eagerly
    ranking reference's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=hro_cases())
    def test_random_traces(self, case):
        requests, capacity, kwargs = case
        reference = ReferenceHroBound(capacity, **kwargs)
        reference.track_decisions = True
        bound = HroBound(capacity, **kwargs)
        closed = []
        bound.on_window = closed.append
        for request in requests:
            assert bound.process(request) == reference.process(request)
            assert bound.last_would_cache == reference.last_would_cache
            assert bound.hazard_threshold == reference.hazard_threshold
            assert bound.hazard_rank(request.obj_id) == reference.hazard_rank(
                request.obj_id
            )
        assert (bound.hits, bound.hit_bytes, bound.requests, bound.total_bytes) == (
            reference.hits,
            reference.hit_bytes,
            reference.requests,
            reference.total_bytes,
        )
        expected = [_window_fields(w) for w in reference.windows]
        assert [_window_fields(w) for w in closed] == expected
        assert [_window_fields(w) for w in bound.windows] == expected[-2:]
        assert bound.windows_closed == len(expected)
        accountant = HroBound(capacity, **kwargs)
        accounted = []
        accountant.on_window = accounted.append
        for request in requests:
            accountant.process_scalar(request.obj_id, request.size, request.time)
        assert [_window_fields(w) for w in accounted] == expected
        assert [_window_fields(w) for w in accountant.windows] == expected[-2:]
        assert accountant.windows_closed == len(expected)
        assert accountant.requests == 0

    @pytest.mark.parametrize("spec", ["cdn-a", "cdn-c", "wiki"])
    def test_production_standins(self, spec):
        from repro.traces import generate_production_trace

        trace = generate_production_trace(spec, scale=0.005, seed=3)
        capacity = max(int(0.05 * trace.unique_bytes()), 1)
        reference = ReferenceHroBound(capacity, min_window_requests=512)
        reference.track_decisions = True
        bound = HroBound(capacity, min_window_requests=512)
        closed = []
        bound.on_window = closed.append
        verdicts = []
        expected = []
        for request in trace:
            verdicts.append(
                (
                    bound.process(request),
                    bound.last_would_cache,
                    bound.hazard_threshold,
                    bound.hazard_rank(request.obj_id),
                )
            )
            expected.append(
                (
                    reference.process(request),
                    reference.last_would_cache,
                    reference.hazard_threshold,
                    reference.hazard_rank(request.obj_id),
                )
            )
        assert len(closed) >= 2
        assert verdicts == expected
        windows = [_window_fields(w) for w in reference.windows]
        assert [_window_fields(w) for w in closed] == windows
        assert [_window_fields(w) for w in bound.windows] == windows[-2:]
        assert bound.windows_closed == len(windows)
